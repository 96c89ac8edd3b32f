package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Tests that register entries use the zz-test- prefix by convention; the
// golden tests below filter it out so registration tests and golden tests
// compose in one process.
func builtins[E interface{ Display() string }](entries []E) []string {
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Display(), "zz-test-") {
			continue
		}
		out = append(out, e.Display())
	}
	return out
}

// TestPlatformsGolden pins the built-in platform catalogue: the same list
// backs cholsim -list, the /v1/platforms endpoint, and every "unknown
// platform" error, so a drift here is user-visible in three places.
func TestPlatformsGolden(t *testing.T) {
	want := []string{"homogeneous:N", "mirage", "mirage-extended", "mirage-nocomm", "related:K"}
	got := builtins(Platforms())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Platforms() = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Platforms() not sorted: %v", got)
	}
	for _, e := range Platforms() {
		if e.Description == "" {
			t.Errorf("platform %q has no description", e.Display())
		}
	}
}

func TestSchedulersGolden(t *testing.T) {
	want := []string{"dmda", "dmda-nocomm", "dmdar", "dmdas", "gemm-syrk-gpu", "greedy", "partition:G", "random", "trsm-cpu:K"}
	got := builtins(Schedulers())
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Schedulers() = %v, want %v", got, want)
	}
	for _, e := range Schedulers() {
		if e.Description == "" {
			t.Errorf("scheduler %q has no description", e.Display())
		}
	}
}

// TestUsageMatchesCatalogue asserts the CLI help strings are generated from
// the registry rather than hand-maintained.
func TestUsageMatchesCatalogue(t *testing.T) {
	for _, e := range Platforms() {
		if !strings.Contains(PlatformUsage(), e.Display()) {
			t.Errorf("PlatformUsage() %q missing %q", PlatformUsage(), e.Display())
		}
	}
	for _, e := range Schedulers() {
		if !strings.Contains(SchedulerUsage(), e.Display()) {
			t.Errorf("SchedulerUsage() %q missing %q", SchedulerUsage(), e.Display())
		}
	}
}

// TestUnknownErrorsListRegistry asserts satellite #3: "unknown" errors name
// every registered entry so the registry is the single source of truth.
func TestUnknownErrorsListRegistry(t *testing.T) {
	if _, err := NewPlatform("no-such-platform"); err == nil || !strings.Contains(err.Error(), PlatformUsage()) {
		t.Fatalf("NewPlatform error %v does not list the registry", err)
	}
	if _, err := NewScheduler("no-such-sched"); err == nil || !strings.Contains(err.Error(), SchedulerUsage()) {
		t.Fatalf("NewScheduler error %v does not list the registry", err)
	}
}

func TestParameterizedNames(t *testing.T) {
	p, err := NewPlatform("homogeneous:5")
	if err != nil {
		t.Fatal(err)
	}
	if w := p.Workers(); w != 5 {
		t.Fatalf("homogeneous:5 built %d workers", w)
	}
	if _, err := NewPlatform("homogeneous"); err == nil {
		t.Fatal("homogeneous without worker count should fail")
	}
	if _, err := NewPlatform("mirage:3"); err == nil || !strings.Contains(err.Error(), "takes no parameter") {
		t.Fatalf("mirage:3 error = %v, want 'takes no parameter'", err)
	}
	if _, err := NewScheduler("trsm-cpu:4"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler("trsm-cpu"); err == nil {
		t.Fatal("trsm-cpu without K should fail")
	}
}

func TestRegisterCustom(t *testing.T) {
	// Unregister on exit so the test can run again in the same process
	// (-count=N): a second registration would hit the duplicate panic.
	t.Cleanup(func() {
		registry.mu.Lock()
		defer registry.mu.Unlock()
		delete(registry.platforms, "zz-test-flat")
		delete(registry.schedulers, "zz-test-greedy")
	})
	RegisterPlatform(PlatformEntry{
		Name:        "zz-test-flat",
		Param:       "N",
		Description: "test-only homogeneous clone",
		Build: func(arg string) (*platform.Platform, error) {
			return platform.Homogeneous(3), nil
		},
	})
	RegisterScheduler(SchedulerEntry{
		Name:        "zz-test-greedy",
		Description: "test-only greedy clone",
		Build: func(arg string) (sched.Scheduler, error) {
			return sched.NewGreedy(), nil
		},
	})
	if _, err := NewPlatform("zz-test-flat:9"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler("zz-test-greedy"); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterPlatform did not panic")
		}
	}()
	RegisterPlatform(PlatformEntry{
		Name:  "zz-test-flat",
		Build: func(string) (*platform.Platform, error) { return platform.Homogeneous(1), nil },
	})
}

func TestRegisteredBuildersConstruct(t *testing.T) {
	names := []string{"mirage", "mirage-nocomm", "homogeneous:4", "related:2"}
	for _, n := range names {
		p, err := NewPlatform(n)
		if err != nil {
			t.Fatalf("NewPlatform(%q): %v", n, err)
		}
		if err := p.Validate(graph.CholeskyKinds); err != nil {
			t.Fatalf("platform %q invalid: %v", n, err)
		}
	}
	for _, n := range []string{"random", "greedy", "dmda", "dmdas", "dmdar", "dmda-nocomm", "gemm-syrk-gpu", "trsm-cpu:3"} {
		if _, err := NewScheduler(n); err != nil {
			t.Fatalf("NewScheduler(%q): %v", n, err)
		}
	}
}
