package workload

import (
	"fmt"
	"math"

	"repro/internal/codegen"
	"repro/internal/mem"
)

// OceanParams configures the Ocean-class kernel: an iterative 5-point
// Jacobi relaxation over a shared float32 grid, row-partitioned across
// threads with a barrier between sweeps. It reproduces the sharing
// pattern of SPLASH-2 Ocean (contiguous partitions): a large shared
// grid, nearest-neighbour boundary sharing between adjacent threads,
// and barrier-synchronised phases. Following the paper, the grid is
// scaled with the thread count so per-processor work stays constant.
type OceanParams struct {
	Threads int
	// RowsPerThread is the band height each thread owns.
	RowsPerThread int
	// Iters is the number of relaxation sweeps.
	Iters int
}

// Grid returns the grid side length: interior rows plus two border rows.
func (p OceanParams) Grid() int { return p.Threads*p.RowsPerThread + 2 }

// oceanReference runs the same relaxation in float32 on the host with
// the exact operation order of the generated code, returning the final
// grid (row-major). Borders are 1.0, interior starts at 0.
func oceanReference(p OceanParams) []float32 {
	g := p.Grid()
	a := make([]float32, g*g)
	b := make([]float32, g*g)
	initOceanGrid(a, g)
	initOceanGrid(b, g)
	src, dst := a, b
	for it := 0; it < p.Iters; it++ {
		for i := 1; i < g-1; i++ {
			for j := 1; j < g-1; j++ {
				up := src[(i-1)*g+j]
				down := src[(i+1)*g+j]
				left := src[i*g+j-1]
				right := src[i*g+j+1]
				s1 := up + down
				s2 := left + right
				dst[i*g+j] = (s1 + s2) * 0.25
			}
		}
		src, dst = dst, src
	}
	return src
}

func initOceanGrid(a []float32, g int) {
	for i := 0; i < g; i++ {
		a[i] = 1.0         // top row
		a[(g-1)*g+i] = 1.0 // bottom row
		a[i*g] = 1.0       // left column
		a[i*g+g-1] = 1.0   // right column
	}
}

// BuildOcean assembles the kernel.
func BuildOcean(l mem.Layout, mode codegen.SchedMode, p OceanParams) (*Spec, error) {
	if err := checkParams("ocean", p.Threads, size{"rows per thread", p.RowsPerThread},
		size{"iterations", p.Iters}); err != nil {
		return nil, err
	}
	g := p.Grid()
	if g > 8191 {
		return nil, fmt.Errorf("workload: ocean grid %d too large for 16-bit row offsets", g)
	}
	b := codegen.NewBuilder(l.CodeBase)
	rt := codegen.NewRuntime(b, l, mode, p.Threads)

	gridBytes := uint32(g * g * 4)
	gridA := rt.Shared().Alloc(gridBytes, 32)
	gridB := rt.Shared().Alloc(gridBytes, 32)
	c025 := rt.Shared().Alloc(4, 4)
	bar := rt.NewBarrier()
	rowBytes := int32(g * 4)

	const (
		sRowStart = codegen.S0
		sRowEnd   = codegen.S1
		sIter     = codegen.S2
		sSrc      = codegen.S3
		sDst      = codegen.S4
		sBar      = codegen.S5
		sRow      = codegen.S6
	)

	b.Label("ocean_main")
	// A0 = tid. Row band [1+tid*R, 1+(tid+1)*R).
	b.Li(codegen.T1, uint32(p.RowsPerThread))
	b.Mul(codegen.T0, codegen.A0, codegen.T1)
	b.Addi(sRowStart, codegen.T0, 1)
	b.Addi(sRowEnd, sRowStart, int32(p.RowsPerThread))
	b.Li(sIter, uint32(p.Iters))
	b.Li(sSrc, gridA)
	b.Li(sDst, gridB)
	b.Li(sBar, bar)

	b.Label("ocean_iter")
	b.Beq(sIter, codegen.R0, "ocean_done")
	// Float registers are not preserved across barriers: reload.
	b.Li(codegen.T0, c025)
	b.Flw(codegen.F10, 0, codegen.T0)
	b.Mv(sRow, sRowStart)

	b.Label("ocean_row")
	b.Beq(sRow, sRowEnd, "ocean_rowdone")
	// T1 = &src[i][1], T2 = &dst[i][1].
	b.Li(codegen.T0, uint32(g))
	b.Mul(codegen.T0, sRow, codegen.T0)
	b.Addi(codegen.T0, codegen.T0, 1)
	b.Slli(codegen.T0, codegen.T0, 2)
	b.Add(codegen.T1, codegen.T0, sSrc)
	b.Add(codegen.T2, codegen.T0, sDst)
	b.Li(codegen.T3, uint32(g-2))

	b.Label("ocean_col")
	b.Flw(codegen.F1, -rowBytes, codegen.T1)
	b.Flw(codegen.F2, rowBytes, codegen.T1)
	b.Flw(codegen.F3, -4, codegen.T1)
	b.Flw(codegen.F4, 4, codegen.T1)
	b.Fadd(codegen.F1, codegen.F1, codegen.F2)
	b.Fadd(codegen.F3, codegen.F3, codegen.F4)
	b.Fadd(codegen.F1, codegen.F1, codegen.F3)
	b.Fmul(codegen.F1, codegen.F1, codegen.F10)
	b.Fsw(codegen.F1, 0, codegen.T2)
	b.Addi(codegen.T1, codegen.T1, 4)
	b.Addi(codegen.T2, codegen.T2, 4)
	b.Addi(codegen.T3, codegen.T3, -1)
	b.Bne(codegen.T3, codegen.R0, "ocean_col")
	b.Addi(sRow, sRow, 1)
	b.J("ocean_row")

	b.Label("ocean_rowdone")
	b.Mv(codegen.A0, sBar)
	b.Jal("rt_barrier")
	// Swap source and destination grids for the next sweep.
	b.Mv(codegen.T0, sSrc)
	b.Mv(sSrc, sDst)
	b.Mv(sDst, codegen.T0)
	b.Addi(sIter, sIter, -1)
	b.J("ocean_iter")

	b.Label("ocean_done")
	b.J("rt_thread_exit")

	addThreads(rt, "ocean_main", p.Threads)
	img, err := rt.BuildImage()
	if err != nil {
		return nil, err
	}
	img.WriteFloat(c025, 0.25)
	// Initial grids: hot borders, cold interior.
	init := make([]float32, g*g)
	initOceanGrid(init, g)
	for i, v := range init {
		if v != 0 {
			img.WriteFloat(gridA+uint32(i*4), v)
			img.WriteFloat(gridB+uint32(i*4), v)
		}
	}
	img.Define("ocean_gridA", gridA)
	img.Define("ocean_gridB", gridB)

	want := oceanReference(p)
	final := gridA
	if p.Iters%2 == 1 {
		final = gridB
	}
	return &Spec{
		Name:    "ocean",
		Image:   img,
		Threads: p.Threads,
		Check: func(s *mem.Space) error {
			for i := 1; i < g-1; i++ {
				for j := 1; j < g-1; j++ {
					addr := final + uint32((i*g+j)*4)
					got := s.ReadFloat(addr)
					w := want[i*g+j]
					if math.Float32bits(got) != math.Float32bits(w) {
						return fmt.Errorf("workload: ocean[%d][%d] = %g, want %g", i, j, got, w)
					}
				}
			}
			return nil
		},
	}, nil
}
