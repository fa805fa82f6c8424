package main

import "testing"

func TestNewService(t *testing.T) {
	for name, peak := range map[string]float64{
		"cassandra": 480,
		"specweb":   350,
		"rubis":     800,
	} {
		svc, err := newService(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if svc.Name() != name {
			t.Errorf("newService(%q).Name() = %q", name, svc.Name())
		}
		if got := peakClients(svc); got != peak {
			t.Errorf("%s peak %v, want %v", name, got, peak)
		}
	}
	if _, err := newService("memcached"); err == nil {
		t.Error("unknown service should error")
	}
}

// TestLearnRepository is the daemon's cold-start path: learning a
// repository from the synthetic day must produce a usable clustering.
func TestLearnRepository(t *testing.T) {
	svc, err := newService("cassandra")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := learnRepository(svc, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Classes() < 2 {
		t.Errorf("learned %d classes, want >= 2", repo.Classes())
	}
	if repo.Len() < repo.Classes() {
		t.Errorf("repository has %d entries for %d classes", repo.Len(), repo.Classes())
	}
}

// TestTemplateNames pins the -services flag semantics: comma lists,
// install-only "none", and duplicate rejection.
func TestTemplateNames(t *testing.T) {
	if names, err := templateNames("cassandra, specweb"); err != nil || len(names) != 2 || names[1] != "specweb" {
		t.Errorf("list: %v %v", names, err)
	}
	if names, err := templateNames("none"); err != nil || names != nil {
		t.Errorf("none: %v %v", names, err)
	}
	if _, err := templateNames("cassandra,cassandra"); err == nil {
		t.Error("duplicate services must error")
	}
	if _, err := templateNames(","); err == nil {
		t.Error("empty list must error")
	}
}
