(** Non-interactive baselines the paper's introduction argues against —
    top-k, skyline and regret-minimizing sets — plus coverage metrics for
    comparing any result set against the exact indistinguishability set.

    None of these can solve the indistinguishability query: top-k needs the
    exact utility; the skyline discards dominated-but-indistinguishable
    tuples and keeps arbitrarily many uninteresting ones; a k-regret set
    guarantees only that {i some} member is near-optimal.  The
    [baseline_comparison] example quantifies each failure mode with these
    functions. *)

val top_k :
  Indq_dataset.Dataset.t -> Indq_user.Utility.t -> k:int -> Indq_dataset.Tuple.t list
(** The top-k tuples for a {i known} utility (clairvoyant baseline). *)

val skyline : Indq_dataset.Dataset.t -> Indq_dataset.Tuple.t list
(** The Pareto-optimal tuples. *)

val greedy_regret_set :
  Indq_dataset.Dataset.t ->
  size:int ->
  sample_utilities:Indq_user.Utility.t list ->
  Indq_dataset.Tuple.t list
(** A k-regret-minimizing set in the style of Nanongkai et al. (VLDB
    2010), built greedily: seed with the best tuple for the first sampled
    utility, then repeatedly add the tuple that most reduces the maximum
    regret ratio over the utility sample.  Stops early when regret reaches
    0.  Raises [Invalid_argument] on an empty dataset, empty sample or
    non-positive size. *)

val uh_random :
  ?delta:float ->
  ?anchors:int ->
  ?store:Pruning.Store.t ->
  ?source_n:int ->
  data:Indq_dataset.Dataset.t ->
  s:int ->
  q:int ->
  eps:float ->
  oracle:Indq_user.Oracle.t ->
  rng:Indq_util.Rng.t ->
  unit ->
  Real_points.result
(** The interactive UH-Random baseline — {!Real_points.uh_random} under its
    evaluation-section name, sharing the store-backed Lemma 2 pruning loop
    with MinR/MinD so baseline numbers exercise the same code path. *)

(** {2 Comparing a result set against the exact query} *)

type comparison = {
  truth_size : int;  (** |I| *)
  result_size : int;
  covered : int;  (** |result ∩ I| *)
  coverage : float;  (** covered / |I| — 1.0 means no false negatives *)
  false_positives : int;  (** |result \ I| *)
}

val compare_with_truth :
  eps:float ->
  Indq_user.Utility.t ->
  data:Indq_dataset.Dataset.t ->
  Indq_dataset.Tuple.t list ->
  comparison
(** Score a candidate result set against [I(f, eps)] computed on [data]. *)

val pp_comparison : Format.formatter -> comparison -> unit
