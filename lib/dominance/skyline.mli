(** Skyline (Pareto-optimal subset) and c-skyline operators.

    The c-skyline (Definition 5) keeps every tuple not c-dominated by
    another; with [c = 1 + eps] it is exactly the pre-processing filter of
    Observation 3 (Line 1 of Algorithms 1–3).  Four algorithms are
    provided: block-nested-loops (the obviously correct baseline, used as
    ground truth in tests), sort-filter-skyline (sort by coordinate sum,
    single window pass), a 2-D plane sweep, and a packed-index variant over
    the dataset's flat store.  {!c_skyline} dispatches among the last
    three. *)

val skyline : Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** The classic skyline ([c = 1]), via {!c_skyline}. *)

val c_skyline : c:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** Fixed dispatch: 2-D inputs take {!c_skyline_sweep_2d}, inputs of at
    most 512 rows {!c_skyline_sfs}, everything larger {!c_skyline_store}.
    Each call bumps one of [skyline.path_sweep] / [skyline.path_sfs] /
    [skyline.path_store]; the choice never changes the result.  Requires
    [c >= 1]. *)

val c_skyline_bnl : c:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** Block-nested-loops: compares every pair.  O(n² d) — small inputs and
    tests only. *)

val c_skyline_sfs : c:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** Sort-filter-skyline: tuples sorted by decreasing coordinate sum can only
    be c-dominated by earlier window entries (valid for any [c >= 1] because
    [c]-domination implies plain domination on normalized non-negative
    data). *)

val c_skyline_sweep_2d :
  c:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** O(n log n) plane-sweep for [d = 2]: sort by the first coordinate, use
    prefix maxima of the second to answer each c-domination test in
    O(log n).  Raises [Invalid_argument] unless the data is 2-dimensional.
    {!c_skyline} dispatches here automatically for 2-D inputs. *)

val c_skyline_store :
  c:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** Fully columnar variant: a packed {!Indq_rtree.Strtree} over the
    dataset's flat store buffer answers each c-domination test as an
    early-exit box probe; the result is selected positionally.  No
    per-tuple heap objects anywhere on the hot path — the variant that
    scales to 10^7 rows.  Same result set and order as every other
    variant. *)

val prune_eps_dominated : eps:float -> Indq_dataset.Dataset.t -> Indq_dataset.Dataset.t
(** Observation 3 filter: [c_skyline ~c:(1 +. eps)]. *)

val is_dominated_by_any : Indq_dataset.Dataset.t -> Indq_dataset.Tuple.t -> bool
(** Whether any {i other} tuple (different id) dominates the given one. *)
