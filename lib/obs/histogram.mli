(** Deterministic log-bucketed distributions.

    A histogram records a stream of non-negative observations into
    logarithmic buckets — four sub-buckets per power of two, relative
    width 2^0.25 ≈ 1.19 — together with the exact observation count and
    exact float sum.  Bucket boundaries are computed with
    [frexp]/[ldexp] only (never [log] or [**]), so bucketing is
    bit-identical across platforms; bucket counts are integers, so
    merging per-domain snapshots is exact addition and every aggregate —
    including the p50/p90/p99 estimates — is bit-identical for [-j N]
    and [-j 1].

    Like {!Counter}, names are registered process-wide while values live
    in per-domain cells: {!observe} never takes a lock.  Cross-domain
    aggregation goes through {!snapshot}/{!since}/{!merge} (see
    {!Indq_obs.Obs}).

    The histogram catalog (all names appear in DESIGN.md §5):
    - [lp.pivots_per_reopt] — simplex pivots per {!Indq_lp.Lp.Live.add_cut}
      or {!Indq_lp.Lp.Live.optimize} call (count unit; deterministic).
    - [region.halfspaces_per_round] — cuts added per
      [Region.observe] round (count unit; deterministic).
    - [session.round_latency] — wall seconds per interactive
      [Session.answer] round (seconds unit).
    - one seconds-unit histogram per {!Span} name, fed automatically on
      every span completion (e.g. [squeeze_u.ladder]). *)

type t
(** A registered histogram handle (name + slot index + unit). *)

type unit_ = Count | Seconds
(** What an observation measures.  [Seconds] histograms are wall-clock
    valued and therefore nondeterministic; reports gate them behind the
    same [with_times] switch as every other timing output.  [Count]
    histograms observe integer-valued quantities, so even their float
    [sum] merges exactly. *)

type snap = {
  s_unit : unit_;
  count : int;  (** total observations, including non-positive ones *)
  sum : float;  (** exact sum of all observations *)
  zeros : int;  (** observations <= 0 (reported as percentile 0) *)
  buckets : (int * int) list;
      (** (bucket index, occupancy), sorted by index, zero-free *)
}
(** An immutable snapshot of one histogram.  Canonical: two snaps of equal
    distributions are structurally equal. *)

val make : ?unit_:unit_ -> string -> t
(** Register (or look up) the histogram named [name].  [unit_] defaults
    to [Count] and is fixed by the first registration. *)

val observe : t -> float -> unit
(** Record one observation in the calling domain's cell. *)

val name : t -> string

val kind : t -> unit_

val value : t -> snap
(** This domain's current snapshot of [t]. *)

val find : string -> t option

val all : unit -> t list
(** Every registered histogram, sorted by name. *)

val snapshot : unit -> (string * snap) list
(** [(name, value)] for every registered histogram, sorted by name. *)

val since : (string * snap) list -> (string * snap) list
(** Per-histogram delta against an earlier {!snapshot}, dropping
    histograms with no new observations. *)

val merge : (string * snap) list -> unit
(** Fold snapshot deltas into the calling domain's cells — exact integer
    bucket addition, used by {!Indq_obs.Obs.merge} to aggregate worker
    domains deterministically. *)

val combine : snap -> snap -> snap
(** Pure merge of two snaps (exact on counts and buckets; float [sum]
    addition commutes, and is associative whenever the observations are
    integer-valued, as all [Count]-unit histograms are). *)

val empty : unit_ -> snap

val sub_snap : snap -> snap -> snap
(** [sub_snap after before] — pointwise difference; inverse of
    {!combine}. *)

val reset_all : unit -> unit
(** Zero every histogram's cell in the calling domain (tests). *)

val bucket_of : float -> int
(** The bucket index of a positive value: [4*e + k] where
    [frexp v = (m, e)] and [k] is the sub-bucket of the mantissa. *)

val bucket_bounds : int -> float * float
(** Inclusive lower / exclusive upper bound of a bucket index; exact, and
    inverse to {!bucket_of}: [fst (bucket_bounds (bucket_of v)) <= v] and
    [v < snd (bucket_bounds (bucket_of v))] for every positive finite
    [v]. *)

val percentile : snap -> float -> float
(** [percentile s p] for p ∈ [0,1]: the upper bound of the bucket holding
    the observation at nearest rank ⌈p·count⌉ — a deterministic
    over-estimate within one bucket width (< 19 %).  0 on an empty snap
    and whenever the rank falls among the non-positive observations. *)

val p50 : snap -> float

val p90 : snap -> float

val p99 : snap -> float

val mean : snap -> float
(** [sum/count] (0 on an empty snap). *)
