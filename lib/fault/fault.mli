(** Deterministic fault injection.

    A fault {e plan} arms a subset of the named injection {e sites} compiled
    into the stack (the LP solver, the user oracle, the dataset loader, the
    domain pool).  Armed code asks {!fire} at the site; the answer is a pure
    function of the plan and the number of times the site has been reached
    since the plan was installed, so a faulted run is exactly reproducible —
    the same plan over the same workload injects the same faults.

    Plans are domain-local (installed with {!with_plan}); with no plan
    installed every site is dormant and costs one thread-local read.  The
    eight sites and what each one exercises:

    - [inject.lp_iteration_cap] — collapses the primary pivot budget of
      an [Lp.Live.optimize] or [Lp.Live.add_cut] run to zero: [optimize]
      recovers by continuing under Bland's anti-cycling rule, a failed
      [add_cut] by the polytope rebuilding that region's tableau;
    - [inject.lp_nan_pivot] — plants a non-finite value in the tableau
      [Lp.Live.create] builds, forcing the typed
      [Lp.Failed (Numerical _)] outcome;
    - [inject.oracle_contradiction] — makes the simulated user pick the
      {e worst} option, producing contradictory cuts that collapse the
      feasible region;
    - [inject.dataset_load] — fails [Dataset.of_csv] as if the source were
      unreadable, surfacing the typed [Dataset.Load_error];
    - [inject.worker_death] — kills a [Pool.parallel_map] chunk before it
      computes, exercising the per-chunk retry;
    - [inject.journal_torn_write] — tears a session-journal append
      mid-record (a byte-truncated line, no newline), exercising the
      torn-tail recovery in [Session.journal_of_string] and the server's
      crashed-session eviction;
    - [inject.journal_sync] — fails a journal fsync as if the device
      returned EIO; the durable sink absorbs it, counts it and retries on
      the next record;
    - [inject.client_disconnect] — makes the session server drop the
      connection instead of delivering a response, exercising the
      client-side reconnect-and-resume path mid-round. *)

type trigger =
  | Never
  | Once of int  (** inject on the [k]-th time the site is reached (1-based) *)
  | Every of int  (** inject on every [k]-th reach *)
  | After of int  (** inject on every reach past the [k]-th *)
  | Always

type plan = {
  seed : int;  (** provenance only: the seed the plan was derived from *)
  arms : (string * trigger) list;  (** site name -> trigger, sorted by name *)
}

exception Injected of string
(** [Injected site] is the typed exception raised where an injected fault
    cannot be absorbed locally (today: only the simulated worker death,
    when retries are exhausted). *)

val site_names : string list
(** The registry of valid injection sites, sorted. *)

val site_description : string -> string
(** One-line description of a registered site.  Raises [Invalid_argument]
    on an unknown name. *)

val none : plan
(** The empty plan: installs fine, never fires. *)

val plan : ?seed:int -> (string * trigger) list -> plan
(** Validates every site name against the registry (raises
    [Invalid_argument] on an unknown one) and sorts the arms. *)

val random_plan : seed:int -> plan
(** A seed-derived plan arming {e every} site with [Once k], [k] in 1–4,
    drawn from [Util.Rng].  The same seed always yields the same plan; used
    by the CI fault matrix to vary {e when} each site trips. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] installs [p] for the calling domain with fresh per-site
    reach counts, runs [f], and restores the previous plan (if any) on the
    way out, exception or not.  Nests. *)

val with_plan_opt : plan option -> (unit -> 'a) -> 'a
(** [with_plan_opt None f] is [f ()]; [with_plan_opt (Some p) f] is
    [with_plan p f].  Lets the pool re-install the caller's captured plan
    on worker domains. *)

val armed : unit -> bool
(** A plan is installed on this domain (it may still have no arms). *)

val current : unit -> plan option
(** The installed plan, for propagation to other domains. *)

val fire : string -> bool
(** [fire site] — the site has been reached; inject here?  Bumps the
    site's reach count and evaluates its trigger; [true] increments the
    ["fault.injected"] counter.  Always [false] with no plan installed.
    Raises [Invalid_argument] if a plan is installed and [site] is not in
    the registry (a misspelled site would otherwise never fire). *)

val scheduled : string -> index:int -> attempt:int -> bool
(** [scheduled site ~index ~attempt] — reach-count-free variant for sites
    indexed by an external position (pool chunks): the trigger is evaluated
    against [index + 1] instead of a running count, and (except for
    [Always], which fires on every attempt so retries can be exhausted)
    only on [attempt = 0].  Touches no counters — the pool accounts for
    injections itself, in deterministic chunk order on the calling
    domain. *)

val injections : string -> int
(** How many times [fire] returned [true] for the site under the currently
    installed plan ([0] with no plan). *)
