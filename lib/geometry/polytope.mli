(** The feasible utility region [R_j]: a convex subset of the standard
    simplex [{ u in R^d : u >= 0, sum u_i = 1 }] cut by the preference
    halfspaces accumulated so far.

    Every question asked of the user adds up to [s - 1] halfspaces; the MinR
    and MinD heuristics rank candidate question sets by the expected
    post-answer width / diameter of this region (Algorithm 2), and Lemma 2
    prunes candidate tuples by checking emptiness of a cut of this region.
    All of those reduce to small LPs solved by {!Indq_lp.Lp}.

    {b Canonical dual-simplex engine.}  Every LP-derived value here is a
    {i pure function of the cut list} (plus static query parameters).
    Each region owns a canonical {i frozen} tableau: the {!Indq_lp.Lp.Live}
    state after replaying its cuts oldest-to-newest through one dual-simplex
    [add_cut] per cut, always under the zero objective.  Value queries fork
    that tableau and re-optimize on the fork — one parent setup reused
    across every candidate child and every per-candidate objective (the
    Lemma 2 batch) — so the pivot sequence, and hence every float, depends
    only on (cuts, query), never on which queries ran before.  Per-direction
    extreme pairs additionally {i adopt} the parent's pair wherever its
    witness vertices survive the new cut (a dot product per witness): the
    witness still attains the optimum over the shrunken region, so the value
    is exact and costs zero pivots.  At [d = 2] the region is an interval of
    the simplex line and everything is answered analytically, without a
    tableau at all.

    The frozen tableau, extreme pairs, profiles and verdicts are memoized
    per region, and fold directions whose inherited upper-bound hints
    cannot affect the result are skipped; a memo hit returns the bits a
    recomputation would produce.  Reuse shows up in ["poly.cache_hits"] and
    dual activity in ["lp.dual_reopt"] / ["lp.dual_pivots"].

    {b Failure.}  When a replay step fails ({!Indq_lp.Lp.Live.add_cut}
    exhausts its pivot budget or hits a non-finite value), that region's
    frozen tableau is rebuilt by {!Indq_lp.Lp.Live.create} over its full
    constraint list (counted in ["lp.solves"]).  If the rebuild fails too,
    the region's geometry is unknown: {!is_empty} answers [true] without
    caching, and value queries raise {!Solver_error}. *)

type t

exception Solver_error of Indq_lp.Lp.error
(** The LP solver returned {!Indq_lp.Lp.Failed} where a value-grade answer
    was required (an extreme, a profile, a width or diameter).  The
    region's geometry is {i unknown} — never assume empty or feasible.
    {!is_empty} absorbs solver failures itself (reporting the region
    unusable without caching a verdict) and never raises this. *)

val simplex : int -> t
(** [simplex d] is the initial region [R_0] for [d] attributes.
    Raises [Invalid_argument] if [d < 1]. *)

val dim : t -> int

val halfspaces : t -> Halfspace.t list
(** The accumulated cuts, most recent first (without the simplex itself). *)

val cut : t -> Halfspace.t -> t
(** [cut r h] is the region [r ∩ h].  O(1); feasibility is evaluated
    lazily.  The child extends the parent's frozen tableau by one
    dual-simplex row and adopts its surviving cached artifacts (see the
    module preamble). *)

val cut_many : t -> Halfspace.t list -> t

val is_empty : t -> bool
(** Feasibility check: the dual-simplex replay verdict (exact — the dual
    ratio test certifies infeasibility), the analytic interval at [d = 2],
    or a surviving cached ancestor point.  Cached per region.  When the
    solver fails ({!Indq_lp.Lp.Failed}), returns [true] — the region is
    unusable — but caches nothing, so a later query may still reach a real
    verdict. *)

val maximize : t -> Indq_linalg.Vec.t -> (float * Indq_linalg.Vec.t) option
(** [maximize r c] is [Some (value, argmax)] of [max c . v] over the region,
    or [None] when the region is empty.  The maximum always exists because
    the region is compact. *)

val minimize : t -> Indq_linalg.Vec.t -> (float * Indq_linalg.Vec.t) option

val contains : ?tol:float -> t -> Indq_linalg.Vec.t -> bool
(** Membership: on the simplex and inside every cut. *)

val coordinate_bounds : t -> (float * float) array
(** [(lo_i, hi_i)] per coordinate.  Raises [Invalid_argument] on an empty
    region. *)

val coordinate_profile : t -> (float * float) array * Indq_linalg.Vec.t list
(** {!coordinate_bounds} plus the [2d] witness vertices where the extremes
    are attained (each a point of the region).  The witnesses let callers
    disprove "max over the region < 0" claims without further LPs. *)

val complete_vertices : t -> Indq_linalg.Vec.t list option
(** The region's {i complete} vertex set, when one is cheaply available:
    the interval endpoints at [d = 2] (the {!coordinate_profile}
    witnesses), the clipped simplex-triangle polygon at [d = 3]
    (Sutherland–Hodgman over the cut list — deterministic float
    arithmetic, no LP).  [None] at higher dimensions or when the [d = 3]
    clipping degenerates to nothing.  With a complete set, any linear
    extreme over the region is a dot-product fold over the list — Lemma 2
    pruning uses this to answer "max over the region < 0" in {i both}
    directions without LPs.  Requires a nonempty region at [d = 2]. *)

val width : ?stop_when:(float -> bool) -> t -> float
(** Paper's MinR metric: the largest coordinate range
    [max_i (hi_i - lo_i)].  0 for a point; raises on an empty region.

    [stop_when] is polled with the running
    maximum after each direction; when it answers [true] the fold stops
    and the partial maximum — a lower bound on the true width — is
    returned.  The predicate must be monotone (once true, true for every
    larger value), which lets callers abort a doomed score without
    affecting any decision the full value would have produced. *)

val support_width : t -> Indq_linalg.Vec.t -> float
(** [support_width r dir] is [max dir.v - min dir.v] over the region —
    the extent along [dir].  Raises on an empty region. *)

val diameter :
  ?extra_directions:Indq_linalg.Vec.t array ->
  ?stop_when:(float -> bool) ->
  t ->
  float
(** Paper's MinD metric.  Estimated as the largest support width over a
    direction set: all coordinate axes, all pairwise axis differences
    [e_i - e_j], plus any [extra_directions].  This is a lower bound on the
    true diameter and exact whenever the diameter is realized along one of
    the probed directions; MinD only uses it to {i rank} candidate question
    sets.  Raises on an empty region.  [stop_when] as in {!width}. *)

val center_estimate : t -> Indq_linalg.Vec.t
(** An interior-ish representative point: the average of the [2d]
    coordinate-extreme vertices.  Raises on an empty region. *)

val random_point : t -> Indq_util.Rng.t -> steps:int -> Indq_linalg.Vec.t
(** Hit-and-run sampling from {!center_estimate}, staying on the simplex
    hyperplane.  More [steps] decorrelates from the center.  Raises on an
    empty region. *)

val to_lp_constraints : t -> Indq_lp.Lp.constr list
(** Simplex equality + cuts, for composing custom LPs over the region. *)
