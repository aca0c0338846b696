#include "textflag.h"

// Montgomery multiplication for four-limb moduli of at most 254 bits on
// amd64 parts with ADX and BMI2: the no-carry CIOS of mulUnrolled, with MULX
// products (flags untouched) feeding two independent carry chains, ADCX on
// CF and ADOX on OF. One routine serves every such Field; the modulus comes
// in by pointer.
//
// Register plan: x0..x3 hold x for the whole routine, t0..t3 the running
// accumulator, A its fifth word. y[i] is loaded at the top of round i and z
// is stored after the last read of x and y, so any aliasing of z, x and y is
// safe. BP is left alone (asmdecl: no frame to save it in).

#define x0 DI
#define x1 R8
#define x2 R9
#define x3 R10
#define t0 R14
#define t1 R13
#define t2 CX
#define t3 BX
#define A  R15
#define hi R12
#define yp R11
#define qp SI

// (A, t3, t2, t1, t0) = x * y[0]: nothing to add in yet. The XORQ that opens
// each block clears CF and OF for the two chains.
#define MUL_ROUND0() \
	XORQ  AX, AX; \
	MOVQ  0(yp), DX; \
	MULXQ x0, t0, t1; \
	MULXQ x1, AX, t2; \
	ADOXQ AX, t1; \
	MULXQ x2, AX, t3; \
	ADOXQ AX, t2; \
	MULXQ x3, AX, A; \
	ADOXQ AX, t3; \
	MOVQ  $0, AX; \
	ADOXQ AX, A

// (A, t3, t2, t1, t0) = (t3, t2, t1, t0) + x * y[i]: low halves ride the OF
// chain, high halves the CF chain.
#define MUL_ROUND(off) \
	XORQ  AX, AX; \
	MOVQ  off(yp), DX; \
	MULXQ x0, AX, A; \
	ADOXQ AX, t0; \
	ADCXQ A, t1; \
	MULXQ x1, AX, A; \
	ADOXQ AX, t1; \
	ADCXQ A, t2; \
	MULXQ x2, AX, A; \
	ADOXQ AX, t2; \
	ADCXQ A, t3; \
	MULXQ x3, AX, A; \
	ADOXQ AX, t3; \
	MOVQ  $0, AX; \
	ADCXQ AX, A; \
	ADOXQ AX, A

// m = t0 * inv; (t3, t2, t1, t0) = ((A, t3, t2, t1, t0) + m * q) / 2^64.
// The low word cancels by construction; with q[3] < 2^62 the sum fits five
// words, so no sixth is kept (canUseUnrolled).
#define REDUCE() \
	MOVQ  inv+32(FP), DX; \
	IMULQ t0, DX; \
	XORQ  AX, AX; \
	MULXQ 0(qp), AX, hi; \
	ADCXQ t0, AX; \
	MOVQ  hi, t0; \
	ADCXQ t1, t0; \
	MULXQ 8(qp), AX, t1; \
	ADOXQ AX, t0; \
	ADCXQ t2, t1; \
	MULXQ 16(qp), AX, t2; \
	ADOXQ AX, t1; \
	ADCXQ t3, t2; \
	MULXQ 24(qp), AX, t3; \
	ADOXQ AX, t2; \
	MOVQ  $0, AX; \
	ADCXQ AX, t3; \
	ADOXQ A, t3

// func mulADX(z, x, y *Element, q *[4]uint64, inv uint64)
TEXT ·mulADX(SB), NOSPLIT, $0-40
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), yp
	MOVQ q+24(FP), qp
	MOVQ 0(AX), x0
	MOVQ 8(AX), x1
	MOVQ 16(AX), x2
	MOVQ 24(AX), x3

	MUL_ROUND0()
	REDUCE()
	MUL_ROUND(8)
	REDUCE()
	MUL_ROUND(16)
	REDUCE()
	MUL_ROUND(24)
	REDUCE()

	// t < 2q here; select t - q unless it borrows. x is dead, so its
	// registers take the difference.
	MOVQ    t0, x0
	SUBQ    0(qp), x0
	MOVQ    t1, x1
	SBBQ    8(qp), x1
	MOVQ    t2, x2
	SBBQ    16(qp), x2
	MOVQ    t3, x3
	SBBQ    24(qp), x3
	CMOVQCC x0, t0
	CMOVQCC x1, t1
	CMOVQCC x2, t2
	CMOVQCC x3, t3

	MOVQ z+0(FP), AX
	MOVQ t0, 0(AX)
	MOVQ t1, 8(AX)
	MOVQ t2, 16(AX)
	MOVQ t3, 24(AX)
	RET

// func cpuHasADX() bool
// CPUID leaf 7, sub-leaf 0: EBX bit 8 is BMI2 (MULX), bit 19 is ADX.
TEXT ·cpuHasADX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLO  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL  $0x80100, BX
	CMPL  BX, $0x80100
	SETEQ ret+0(FP)
done:
	RET
