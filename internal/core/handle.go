package core

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// VersionedRepository pairs an immutable repository snapshot with a
// monotonically increasing version number. Decision-path readers grab
// one VersionedRepository and use it for the whole request, so every
// decision is served from a single consistent snapshot even while a
// background relearn swaps a new repository in.
type VersionedRepository struct {
	// Repo is the repository snapshot. The learned artifacts are
	// immutable; the allocation entries keep accepting Puts, which is
	// intended — entries added against version v remain visible to
	// every reader of v.
	Repo *Repository
	// Version counts swaps since the handle was created, starting
	// at 1.
	Version uint64
}

// Handle is the swap-safe owner of a repository: a single atomic
// pointer to the current VersionedRepository. Readers never lock;
// writers build the replacement completely off the request path and
// publish it with one pointer store. This is the server-side analogue
// of Controller.ReplaceRepository for concurrent, network-facing use.
type Handle struct {
	cur atomic.Pointer[VersionedRepository]
}

// NewHandle creates a handle owning the given repository at version 1.
func NewHandle(repo *Repository) (*Handle, error) {
	if repo == nil {
		return nil, errors.New("core: handle needs a repository")
	}
	h := &Handle{}
	h.cur.Store(&VersionedRepository{Repo: repo, Version: 1})
	return h, nil
}

// Current returns the live snapshot; never nil. Callers must read
// Repo and Version from one returned value to stay on one snapshot.
func (h *Handle) Current() *VersionedRepository { return h.cur.Load() }

// Swap publishes a freshly built repository and returns its version.
// In-flight readers keep serving from the snapshot they already hold;
// new readers see the replacement immediately.
func (h *Handle) Swap(repo *Repository) (uint64, error) {
	if repo == nil {
		return 0, errors.New("core: cannot swap in a nil repository")
	}
	for {
		old := h.cur.Load()
		next := &VersionedRepository{Repo: repo, Version: old.Version + 1}
		if h.cur.CompareAndSwap(old, next) {
			return next.Version, nil
		}
	}
}

// SwapAt publishes repo under a caller-chosen version instead of the
// next local increment. A replicated tier needs this: every replica of
// a template must report the same version for the same repository
// content, so the control plane picks the version once and forces it
// onto each replica — including a replica that restarted and lost its
// local counter. version must not go backwards; re-publishing the
// current version is allowed (content convergence without a visible
// version change).
func (h *Handle) SwapAt(repo *Repository, version uint64) error {
	if repo == nil {
		return errors.New("core: cannot swap in a nil repository")
	}
	if version == 0 {
		return errors.New("core: version 0 is reserved (versions start at 1)")
	}
	for {
		old := h.cur.Load()
		if version < old.Version {
			return fmt.Errorf("core: cannot swap to version %d behind current %d", version, old.Version)
		}
		next := &VersionedRepository{Repo: repo, Version: version}
		if h.cur.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// NewHandleAt creates a handle owning repo at a caller-chosen version
// — the create half of SwapAt for replicas installing a template they
// have never seen.
func NewHandleAt(repo *Repository, version uint64) (*Handle, error) {
	if repo == nil {
		return nil, errors.New("core: handle needs a repository")
	}
	if version == 0 {
		return nil, errors.New("core: version 0 is reserved (versions start at 1)")
	}
	h := &Handle{}
	h.cur.Store(&VersionedRepository{Repo: repo, Version: version})
	return h, nil
}
