(** The real-tuple interactive algorithms (Algorithm 2) and the UH-Random
    baseline of the evaluation.

    All three share the same skeleton: keep a candidate set [C] (initially
    the [(1+eps)]-skyline, Observation 3), show the user [s] real tuples of
    [C] per round, cut the feasible utility region with the learned
    preference hyperplanes (δ-weakened when the user may err), and prune
    [C] by Lemma 2.  They differ only in how the displayed set is chosen:

    - {b Random} (UH-Random, Xie et al. SIGMOD'19 adapted as in
      Section VII): a uniformly random s-subset of [C];
    - {b MinR}: of [T] random s-subsets, the one minimizing the expected
      post-answer region {i width};
    - {b MinD}: the same with the region {i diameter}.

    Theorem 1 shows no algorithm restricted to real tuples can bound the
    number of false positives, so these are heuristics — but they never
    produce false negatives: every pruning step is justified by Lemma 2. *)

type strategy = Random | MinR | MinD

type result = {
  output : Indq_dataset.Dataset.t;  (** surviving candidates [C] *)
  region : Region.t;  (** final feasible region [R_q] *)
  questions_used : int;
}

val run :
  ?delta:float ->
  ?trials:int ->
  ?anchors:int ->
  ?store:Pruning.Store.t ->
  ?source_n:int ->
  strategy ->
  data:Indq_dataset.Dataset.t ->
  s:int ->
  q:int ->
  eps:float ->
  oracle:Indq_user.Oracle.t ->
  rng:Indq_util.Rng.t ->
  result
(** [run strategy ~data ~s ~q ~eps ~oracle ~rng] asks at most [q] rounds of
    at most [s] tuples.  [delta] (default 0) selects the weakened update
    rule of Section VI-B and must be an upper bound on the user's real
    error for the no-false-negative guarantee to hold.  [trials] is the
    paper's [T] (default 10, ignored by [Random]).  [anchors] tunes Lemma 2
    pruning (see {!Pruning.region_prune}).  [store] (default: a fresh one
    per call) carries Lemma 2 certificates across the rounds; supply your
    own only to share it across runs over the {i same} shrinking region,
    e.g. when resuming an interaction.  [source_n] marks [data] as
    already (1+eps)-filtered (see {!Pruning.skyline_stage}): the initial
    [C] is [data] itself.

    Rounds end early when one candidate remains.  Raises [Invalid_argument]
    when [s < 2], [q < 0], [eps <= 0], [delta < 0], [trials < 1] or the
    dataset is empty. *)

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
  result
(** [run Random] under its evaluation-section name. *)

val score_display_set :
  ?stop_above:float ->
  delta:float ->
  metric:[ `Width | `Diameter ] ->
  Region.t ->
  Indq_dataset.Tuple.t array ->
  float
(** The MinR/MinD objective for one candidate display set: the average
    metric of the region over each possible user answer (empty posterior
    regions contribute 0).  With [stop_above], scoring aborts — returning [infinity] — as soon as the
    non-negative partial sum proves the final score cannot be strictly
    below the given bound, skipping the remaining posteriors' LPs.
    Exposed for tests. *)
