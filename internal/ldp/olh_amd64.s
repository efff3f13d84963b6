#include "textflag.h"

// Lane k of a chunk hashes the chunk's item k, whose x·φ term is k·φ
// past the first item's.
DATA olhLanes<>+0(SB)/8, $0x0000000000000000
DATA olhLanes<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA olhLanes<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA olhLanes<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA olhLanes<>+32(SB)/8, $0x78dde6e5fd29f054
DATA olhLanes<>+40(SB)/8, $0x1715609f7c746c69
DATA olhLanes<>+48(SB)/8, $0xb54cda58fbbee87e
DATA olhLanes<>+56(SB)/8, $0x538454127b096493
GLOBL olhLanes<>(SB), RODATA|NOPTR, $64

// 8·φ advances every lane to the next chunk; then the two fmix64
// multipliers and the increment.
DATA olhConsts<>+0(SB)/8, $0xf1bbcdcbfa53e0a8
DATA olhConsts<>+8(SB)/8, $0xff51afd7ed558ccd
DATA olhConsts<>+16(SB)/8, $0xc4ceb9fe1a85ec53
DATA olhConsts<>+24(SB)/8, $1
GLOBL olhConsts<>(SB), RODATA|NOPTR, $32

// func olhCountAVX512(counts []int64, z, lo, width uint64)
TEXT ·olhCountAVX512(SB), NOSPLIT, $0-48
	MOVQ counts_base+0(FP), DI
	MOVQ counts_len+8(FP), CX
	SHRQ $3, CX
	JZ   done
	VPBROADCASTQ z+24(FP), Z0
	VPADDQ       olhLanes<>(SB), Z0, Z0
	VPBROADCASTQ olhConsts<>+0(SB), Z1
	VPBROADCASTQ olhConsts<>+8(SB), Z2
	VPBROADCASTQ olhConsts<>+16(SB), Z3
	VPBROADCASTQ olhConsts<>+24(SB), Z4
	VPBROADCASTQ lo+32(FP), Z5
	VPBROADCASTQ width+40(FP), Z6

loop:
	// fmix64 of the 8 lanes, as hashx.Premixed.Hash64.
	VPSRLQ  $33, Z0, Z7
	VPXORQ  Z0, Z7, Z7
	VPMULLQ Z2, Z7, Z7
	VPSRLQ  $33, Z7, Z8
	VPXORQ  Z7, Z8, Z7
	VPMULLQ Z3, Z7, Z7
	VPSRLQ  $33, Z7, Z8
	VPXORQ  Z7, Z8, Z7

	// K1 marks the lanes whose hash lands in the report's bucket
	// interval: hash - lo < width, unsigned.
	VPSUBQ  Z5, Z7, Z7
	VPCMPUQ $1, Z6, Z7, K1

	VMOVDQU64 (DI), Z9
	VPADDQ    Z4, Z9, K1, Z9
	VMOVDQU64 Z9, (DI)

	VPADDQ Z1, Z0, Z0
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
