(** Candidate pruning — the machinery that turns learned utility bounds into
    a small output set while never discarding a member of [I(f, eps)].

    Three testers, matching DESIGN.md:

    - {b box, fast} (Section IV-A): with per-coordinate utility bounds
      [L <= u <= H], compute the utility floor [V = max_p p . L] and drop
      every [p] with [(1+eps) p . H < V].  O(n); the default inside
      Squeeze-u.
    - {b box, exact}: drop [q] when some [p] has
      [(p - (1+eps) q) . v > 0] on all [2^d] corners of the box — the
      paper's full test, exponential in [d]; used on small inputs and as
      ground truth in tests.
    - {b region} (Lemma 2): over a feasible region [R], drop [b] when some
      anchor tuple [a] has [max_{v in R} ((1+eps) b - a) . v < 0].  One LP
      per (candidate, anchor) pair plus a shared scalar floor pre-test.

    The region tester additionally accepts a {!Store.t} that persists across
    the rounds of one interaction.  Because the region only shrinks and
    pruned candidates never re-enter, LP certificates from earlier rounds
    (anchor utility-floor minimizers, per-pair non-prunability witnesses)
    stay valid as long as the witness point survives every later cut — a
    dot product per cut to check — so most re-tests cost no LP at all
    (counted in ["prune.store_hits"]). *)

val skyline_stage :
  ?source_n:int ->
  Indq_dataset.Dataset.t ->
  (Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t) ->
  Indq_dataset.Dataset.t
(** Line 1 of Algorithms 1–3: [skyline_stage data prune] is [prune data]
    (the caller's timed Observation 3 filter), reported as the
    ["skyline"] prune stage.  With [source_n], [data] already {e is} that
    filter's output for a [source_n]-row catalogue: [prune] is skipped and
    the stage reports [source_n] rows in, exactly as the unfiltered run
    would. *)

val box_prune_fast :
  eps:float ->
  lo:Indq_linalg.Vec.t ->
  hi:Indq_linalg.Vec.t ->
  Indq_dataset.Dataset.t ->
  Indq_dataset.Dataset.t
(** The O(n) heuristic filter.  [lo]/[hi] are the [L]/[H] bounds of
    Algorithm 1; requires [lo <= hi] component-wise. *)

val box_prune_exact :
  eps:float ->
  lo:Indq_linalg.Vec.t ->
  hi:Indq_linalg.Vec.t ->
  Indq_dataset.Dataset.t ->
  Indq_dataset.Dataset.t
(** The [2^d n^2] corner test.  Raises [Invalid_argument] for [d > 20]. *)

module Store : sig
  type t
  (** Cross-round prune certificates for one interaction: per-anchor
      utility-floor minimizers and per-(candidate, anchor) non-prunability
      witness points.  Sound to reuse because regions only shrink; see the
      module preamble.  Not thread-safe — use one store per session. *)

  val create : unit -> t
end

val region_prune :
  ?anchors:int ->
  ?store:Store.t ->
  eps:float ->
  Region.t ->
  Indq_dataset.Dataset.t ->
  Indq_dataset.Dataset.t
(** Lemma 2 pruning of a candidate set against a feasible region.
    [anchors] (default 4) is how many high-value tuples are tried as the
    dominating witness [a].  An empty region returns the input unchanged
    (no sound inference is possible from inconsistent answers).
    [store] carries certificates between successive calls over a shrinking
    region; it never changes which candidates survive, only how many LPs
    are issued. *)

val utility_floor :
  ?store:Store.t -> Region.t -> Indq_dataset.Dataset.t -> float
(** [max_a min_{v in R} a . v] over the anchor pool — a lower bound on the
    utility the user's optimum achieves, used by the scalar pre-test.
    Exposed for tests; shares its implementation (and optional certificate
    store) with {!region_prune}. *)
