(** Named work counters for the algorithm stack's hot paths.

    Instrumented modules create a handle once at module-initialization time
    ([let c = Counter.make "lp.solves"]) and bump it on the hot path; a bump
    is an unsynchronized float store into the {b owning domain's} cell, so
    counters stay on permanently and parallel domains never contend.

    Counter {i names} are process-wide (a handle is shared by every domain)
    but {i values} are domain-local: each domain accumulates its own work,
    and reads ({!value}, {!snapshot}, {!get}) see only the calling domain's
    cells.  Cross-domain aggregation is explicit — a parallel harness
    captures per-task deltas with {!Indq_obs.Obs.snapshot}/[diff] on the
    worker and folds them into the coordinating domain with
    {!Indq_obs.Obs.merge} (see {!Indq_exec.Pool}), keeping merged totals
    deterministic regardless of scheduling.

    Conventional names used across the reproduction (dotted,
    [subsystem.event]):

    - ["lp.dual_pivots"] — every simplex pivot (phase 1, dual cut
      absorption, re-optimization); ["lp.dual_reopt"] — [Lp.Live] cut
      absorptions and re-optimizations;
    - ["lp.solves"] — from-scratch tableau builds outside the canonical
      replay: one-shot [Lp.solve] calls and polytope rebuilds after a
      failed replay step; ["lp.failures"] — typed solver failures;
    - ["poly.cache_hits"] — polytope queries answered from cached
      artifacts (memoized extremes, inherited feasibility witnesses,
      hint-skipped directions) instead of fresh LPs;
    - ["prune.scalar_hits"], ["prune.corner_hits"], ["prune.lp_calls"],
      ["prune.witness_hits"] — the pruning cascade (Section IV-A / Lemma 2);
    - ["prune.store_hits"] — prune decisions settled by the cross-round
      candidate store's cached certificates (floors and non-prunability
      witnesses revalidated by dot products);
    - ["region.halfspaces"] — hyperplane cuts applied to feasible regions;
    - ["oracle.questions"] — rounds asked of the user;
    - ["rtree.nodes_visited"] — R-tree nodes touched by queries. *)

type t
(** A counter handle. *)

val make : string -> t
(** [make name] returns the counter registered under [name], creating it at
    zero on first call.  Handles for the same name are shared (across
    domains too — only the values are per-domain). *)

val incr : t -> unit
(** Add 1 in the calling domain. *)

val add : t -> float -> unit
(** Add an arbitrary (possibly fractional) amount in the calling domain. *)

val value : t -> float
(** The calling domain's accumulated value. *)

val name : t -> string

val all : unit -> t list
(** Every registered counter, sorted by name — a pure function of the name
    set, independent of module-initialization or link order, so reports
    built from it are reproducible across builds. *)

val get : string -> float
(** Current value by name in the calling domain; 0 for names never
    registered. *)

val snapshot : unit -> (string * float) list
(** Every registered counter with the calling domain's value, sorted by
    name. *)

val since : (string * float) list -> (string * float) list
(** [since before] subtracts an earlier {!snapshot} (taken on the same
    domain) from the current one, yielding the work done in between.
    Counters created after [before] was taken are reported in full.  Sorted
    by name; zero deltas are kept so lookups are total. *)

val merge : (string * float) list -> unit
(** [merge deltas] adds each named delta into the calling domain's cells,
    registering unknown names.  Used to fold a worker domain's work into
    its coordinator. *)

val reset_all : unit -> unit
(** Zero every registered counter in the calling domain. *)
