# Repro of "A Comprehensive I/O Knowledge Cycle for Modular and Automated
# HPC Workload Analysis". Go stdlib only; no external tools beyond the Go
# toolchain are required.

GO ?= go
export GO

GATE := check fmt vet build race tier1 stress fuzzsmoke benchsmoke benchtest benchab

.PHONY: $(GATE) test bench

# check is the full gate CI runs; the other gate targets are its steps.
# scripts/check.sh defines all of them (and the race package list) once.
$(GATE):
	@sh scripts/check.sh $@

test: tier1

bench:
	$(GO) test -bench=. -benchmem
