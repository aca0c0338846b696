package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("encrypted dataset bytes")
	uri, err := s.Put("alice", data)
	if err != nil {
		t.Fatal(err)
	}
	if uri != URIOf(data) {
		t.Fatal("URI is not the content digest")
	}
	// The store keeps its own copy of what was put.
	data[0] ^= 0xff
	got, err := s.Get(uri)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if !bytes.Equal(got, data) {
		t.Fatal("retrieved data differs")
	}
	// Returned slice must be a copy.
	got[0] ^= 0xff
	again, err := s.Get(uri)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("caller mutation leaked into the store")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := NewStore().Get(URIOf([]byte("nothing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestTamperDetection(t *testing.T) {
	s := NewStore()
	uri, err := s.Put("alice", []byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Corrupt(uri) {
		t.Fatal("corrupt hook found nothing")
	}
	if _, err := s.Get(uri); !errors.Is(err, ErrTampered) {
		t.Fatalf("want ErrTampered, got %v", err)
	}
}

func TestOwnerOnlyRemoval(t *testing.T) {
	s := NewStore()
	uri, err := s.Put("alice", []byte("dataset"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("mallory", uri); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("non-owner removal: %v", err)
	}
	if err := s.Remove("alice", uri); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(uri); !errors.Is(err, ErrNotFound) {
		t.Fatal("removed content still retrievable")
	}
	if err := s.Remove("alice", uri); !errors.Is(err, ErrNotFound) {
		t.Fatal("double removal succeeded")
	}
}

func TestQuickContentAddressing(t *testing.T) {
	s := NewStore()
	prop := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		uri, err := s.Put("q", data)
		if err != nil {
			return false
		}
		got, err := s.Get(uri)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
