package main

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/io500"
	"repro/internal/ior"
	"repro/internal/schema"
)

// seedDemo loads the paper's two §V-E scenarios into the store (the Fig. 5
// iteration-variance run and IO500 runs with a broken node), so `serve
// --demo` has something to show out of the box.
func seedDemo(store *schema.Store) error {
	c, err := core.New(cluster.FuchsCSC(), 7)
	if err != nil {
		return err
	}
	c.Store = store
	cfg, err := ior.ParseCommandLine("ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/fuchs/zhuz/test80 -k")
	if err != nil {
		return err
	}
	cfg.NumTasks = 80
	cfg.TasksPerNode = 20
	// Example I baseline plus the Fig. 5 anomalous run.
	if _, err := c.Run(core.IORGenerator{Config: cfg}); err != nil {
		return err
	}
	anomalous := core.IORGenerator{
		Config: cfg,
		BeforeIteration: func(iter int, m *cluster.Machine) {
			if iter == 1 {
				m.WriteCongestion = 0.44
			} else {
				m.ClearFaults()
			}
		},
	}
	if _, err := c.Run(anomalous); err != nil {
		return err
	}
	// Example II: IO500 runs with a broken node on ior-easy-read.
	for seed := uint64(1); seed <= 5; seed++ {
		c.Seed = seed
		g := core.IO500Generator{
			Config: io500.Default(),
			BeforePhase: func(phase string, m *cluster.Machine) {
				m.ClearFaults()
				if phase == io500.IorEasyRead {
					m.SetNodeFactor(1, 1, 0.35)
				}
			},
		}
		if _, err := c.Run(g); err != nil {
			return err
		}
	}
	return nil
}
