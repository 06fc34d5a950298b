#include "textflag.h"

// func adoptTimersSSE2(seen, peer []float64, penalty float64)
//
// For k < len(peer): seen[k] = max(peer[k]-penalty, seen[k]), where
// MAXPD/MAXSD dst, src yield dst only if dst > src and src otherwise
// (NaN in either lane, or equal values such as ±0, keep src). With
// dst = peer[k]-penalty and src = seen[k] that is exactly the Go loop
// `if adopted > seen[k] { seen[k] = adopted }`. SUBPD is SUBSD per lane,
// and SSE2 is part of the amd64 baseline.
TEXT ·adoptTimersSSE2(SB), NOSPLIT, $0-56
	MOVQ     seen_base+0(FP), DI
	MOVQ     peer_base+24(FP), SI
	MOVQ     peer_len+32(FP), CX
	MOVSD    penalty+48(FP), X0
	UNPCKLPD X0, X0 // X0 = {penalty, penalty}
	SUBQ     $2, CX
	JLT      tail

pairs:
	MOVUPD (SI), X1
	SUBPD  X0, X1   // adopted = peer - penalty
	MOVUPD (DI), X2
	MAXPD  X2, X1   // adopted > seen ? adopted : seen
	MOVUPD X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JGE    pairs

tail:
	ADDQ  $2, CX // 1 if one entry is left, else 0
	JEQ   done
	MOVSD (SI), X1
	SUBSD X0, X1
	MOVSD (DI), X2
	MAXSD X2, X1
	MOVSD X1, (DI)

done:
	RET
