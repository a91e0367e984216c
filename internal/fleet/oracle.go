package fleet

import "fmt"

// Conservation is the run's accounting oracle: every injected request
// and every attempt must be accounted exactly once. It cross-checks
// the client-side tallies against the independent per-replica
// controller snapshots, so a lost or double-counted attempt anywhere
// in the pipeline breaks an identity. Returns nil when every identity
// balances.
func (r *Result) Conservation() error {
	// Request level: injected = completed (in or past deadline) +
	// permanently failed + still in flight at run end.
	if got := r.Served + r.ServedLate + r.FailedPerm + r.InFlightEnd; got != r.Injected {
		return fmt.Errorf("fleet: request conservation broken: served=%d + late=%d + failed=%d + inflight=%d != injected=%d",
			r.Served, r.ServedLate, r.FailedPerm, r.InFlightEnd, r.Injected)
	}

	// Attempt provenance: every attempt is a first send, a retry, or a
	// hedge.
	if got := r.Injected + r.Retries + r.Hedges; got != r.Attempts {
		return fmt.Errorf("fleet: attempt provenance broken: injected=%d + retries=%d + hedges=%d != attempts=%d",
			r.Injected, r.Retries, r.Hedges, r.Attempts)
	}

	// Attempt disposition: every attempt reaches exactly one terminal
	// state (hedge duplicates are served attempts of already-completed
	// requests, folded inside AttemptServed).
	if got := r.AttemptServed + r.AttemptRejected + r.AttemptExpired +
		r.AttemptFailed + r.AttemptCancelled + r.AttemptInFlight; got != r.Attempts {
		return fmt.Errorf("fleet: attempt disposition broken: served=%d + rejected=%d + expired=%d + failed=%d + cancelled=%d + inflight=%d != attempts=%d",
			r.AttemptServed, r.AttemptRejected, r.AttemptExpired,
			r.AttemptFailed, r.AttemptCancelled, r.AttemptInFlight, r.Attempts)
	}

	// Served-exactly-once: every completed request has exactly one
	// winning served attempt; every other served attempt of a done
	// request is a hedge duplicate. Migration preserves attempt
	// identity, so a migrated attempt racing its hedge twin cannot
	// create a second win.
	if got := r.Served + r.ServedLate + r.HedgeDuplicates; got != r.AttemptServed {
		return fmt.Errorf("fleet: served-once broken: served=%d + late=%d + dup=%d != attempt-served=%d",
			r.Served, r.ServedLate, r.HedgeDuplicates, r.AttemptServed)
	}

	// Cross-checks against the replicas' own overload controllers.
	var served, expired, rejected, refused, killed int64
	var migratedOut, stranded int64
	for _, st := range r.PerReplica {
		served += st.Served
		expired += st.Expired
		rejected += st.Rejected
		refused += st.Refused
		killed += st.CrashKilled
		migratedOut += st.MigratedOut
		stranded += st.StrandedQueued
	}
	if served != r.AttemptServed {
		return fmt.Errorf("fleet: served cross-check broken: replicas completed %d, clients settled %d",
			served, r.AttemptServed)
	}
	if expired != r.AttemptExpired {
		return fmt.Errorf("fleet: expired cross-check broken: replicas expired %d, clients settled %d",
			expired, r.AttemptExpired)
	}
	if got := rejected + r.TenantRejected + r.LBUnrouted; got != r.AttemptRejected {
		return fmt.Errorf("fleet: rejected cross-check broken: replica=%d + tenant=%d + unrouted=%d != settled %d",
			rejected, r.TenantRejected, r.LBUnrouted, r.AttemptRejected)
	}
	if got := refused + killed + r.MigrationFailed; got != r.AttemptFailed {
		return fmt.Errorf("fleet: failed cross-check broken: refused=%d + crash-killed=%d + migration-failed=%d != settled %d",
			refused, killed, r.MigrationFailed, r.AttemptFailed)
	}

	// Migration disposition: every attempt drained off a replica was
	// either re-routed or failed, exactly once. (Drained attempts
	// whose hedge twin already won are cancelled at the source and
	// never enter the drain count.)
	if got := r.Migrated + r.MigrationFailed; got != migratedOut {
		return fmt.Errorf("fleet: migration disposition broken: migrated=%d + failed=%d != drained %d",
			r.Migrated, r.MigrationFailed, migratedOut)
	}
	// With migration on, a crash may only kill in-service work; a
	// queued-but-unstarted attempt dying with its replica means the
	// drain stranded it.
	if r.Cfg.Migrate && stranded != 0 {
		return fmt.Errorf("fleet: migration stranded %d queued attempts", stranded)
	}

	if r.HedgeDuplicates > r.Hedges+r.Retries {
		return fmt.Errorf("fleet: %d hedge duplicates exceed %d hedges + %d retries",
			r.HedgeDuplicates, r.Hedges, r.Retries)
	}
	for _, e := range r.InvariantErrs {
		return fmt.Errorf("fleet: invariant broken: %s", e)
	}
	return nil
}
