GO ?= go

.PHONY: build test race check lint bench bench-check experiments fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full verification: the whole suite under the race detector — the
# parallel execution engine (internal/exec and everything routed
# through it) must stay clean here.
race:
	$(GO) test -race ./...

# Static checks: statdb-vet enforces the engine's contracts over the
# AST (obs/goroutine confinement, no library panics, virtual-clock
# determinism, errors.Is/As sentinel matching, canonical metric names,
# and the interprocedural lock-confinement / charge-tracking /
# error-flow rules — see DESIGN.md "Static analysis"), gofmt keeps
# formatting drift out of review, and go vet catches the stdlib's own
# suspects. CI runs this under `timeout 60`: the parallel checker is
# budgeted at one minute for the whole tree.
lint:
	$(GO) run ./cmd/statdb-vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need gofmt -w:" >&2; \
		echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

check: build lint race

bench:
	$(GO) test -bench=. -benchmem .

# benchmark/ is a module of its own (replace statdb => ../), so ./...
# above never compiles it: this is what fails when an internal/ symbol
# it imports is renamed.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Regenerates every experiment table (deterministic; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments | tee experiments_output.txt

fmt:
	gofmt -l -w .
