// Distributed matrix transpose over the ARMCI-like layer — the Global
// Arrays workload family the paper cites as the motivation for
// library-based RMA (Section II: "Library-based RMA approaches, such as
// SHMEM and Global Arrays, have been used by a number of important
// applications").
//
// An N×N float64 matrix is row-block distributed across the ranks through
// ARMCI_Malloc. Each rank then assembles its block of the transpose by
// issuing one *strided get* per (destination row, owner): the column of A
// living at the owner becomes a contiguous run of the destination row.
// Strided transfers are exactly what ARMCI offers beyond GASNet and what
// the strawman absorbs into datatypes (paper Section VI).
//
// Run with:
//
//	go run ./examples/gatranspose
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"mpi3rma/internal/armci"
	"mpi3rma/internal/runtime"
)

const (
	ranks = 4
	n     = 32 // matrix dimension; rowsPer = n/ranks rows per rank
)

func main() {
	world := runtime.NewWorld(runtime.Config{Ranks: ranks})
	defer world.Close()

	err := world.Run(func(p *runtime.Proc) {
		ac := armci.Attach(p)
		comm := p.Comm()
		me := p.Rank()
		rowsPer := n / ranks

		// A's block and At's block, both rowsPer x n, collectively
		// allocated so every rank can address every other rank's block.
		blockBytes := rowsPer * n * 8
		aTMs, aRegion, err := ac.Malloc(comm, blockBytes)
		if err != nil {
			log.Fatal(err)
		}
		_, atRegion, err := ac.Malloc(comm, blockBytes)
		if err != nil {
			log.Fatal(err)
		}

		// Fill my rows of A: A[i][j] = i*n + j (global indices).
		buf := make([]byte, blockBytes)
		for li := 0; li < rowsPer; li++ {
			gi := me*rowsPer + li
			for j := 0; j < n; j++ {
				v := float64(gi*n + j)
				binary.LittleEndian.PutUint64(buf[(li*n+j)*8:], math.Float64bits(v))
			}
		}
		p.WriteLocal(aRegion, 0, buf)
		ac.Barrier()

		// Assemble my block of At: row gi of At is column gi of A.
		// Column gi at owner r is rowsPer elements with stride n*8 —
		// one strided get per (destination row, owner).
		for li := 0; li < rowsPer; li++ {
			gi := me*rowsPer + li
			for owner := 0; owner < ranks; owner++ {
				err := ac.GetS(
					atRegion,
					armci.StridedSpec{Off: (li*n + owner*rowsPer) * 8, Strides: []int{8}},
					aTMs[owner],
					armci.StridedSpec{Off: gi * 8, Strides: []int{n * 8}},
					8, []int{rowsPer})
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		ac.Barrier()

		// Verify: At[i][j] must equal A[j][i] = j*n + i.
		got := p.ReadLocal(atRegion, 0, blockBytes)
		bad := 0
		var checksum float64
		for li := 0; li < rowsPer; li++ {
			gi := me*rowsPer + li
			for j := 0; j < n; j++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(got[(li*n+j)*8:]))
				checksum += v
				if v != float64(j*n+gi) {
					bad++
				}
			}
		}
		total := comm.AllreduceInt64(runtime.OpSum, int64(checksum))
		wrong := comm.AllreduceInt64(runtime.OpSum, int64(bad))
		if me == 0 {
			want := int64(n * n * (n*n - 1) / 2) // sum of 0..n²-1
			fmt.Printf("transpose of %dx%d over %d ranks: %d wrong elements\n", n, n, ranks, wrong)
			fmt.Printf("checksum %d (want %d)\n", total, want)
			fmt.Printf("strided gets issued: %d; virtual time %v\n", ranks*rowsPer*ranks, p.Now())
			if wrong != 0 || total != want {
				log.Fatal("transpose verification failed")
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
