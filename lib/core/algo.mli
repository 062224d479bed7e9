(** Uniform front door to the four evaluated algorithms.

    The experiment harness, CLI and examples all run algorithms through this
    module so that configuration, interaction accounting and timing are
    identical across Squeeze-u, UH-Random, MinD and MinR — mirroring the
    "Algorithms" paragraph of Section VII.  When [delta > 0], [Squeeze_u]
    dispatches to Algorithm 3 (the paper also labels those results
    "Squeeze-u"). *)

type name = Squeeze_u | Uh_random | MinD | MinR

type config = {
  s : int;  (** tuples shown per round *)
  q : int;  (** question budget *)
  eps : float;  (** indistinguishability parameter *)
  delta : float;  (** modeled user error (0 = error-free updates) *)
  trials : int;  (** the paper's T, for MinR/MinD *)
  exact_prune : bool;  (** Squeeze-u: exact box-corner final filter *)
}

type run_result = {
  output : Indq_dataset.Dataset.t;
  questions_used : int;
  seconds : float;
      (** wall-clock algorithm time ([Timer.wall]), excluding any real
          user's thinking time only insofar as the oracle answers
          synchronously *)
  metrics : (string * float) list;
      (** per-run deltas of every {!Indq_obs.Counter} (sorted by name):
          what this run added to each of the executing domain's counters *)
  hists : (string * Indq_obs.Histogram.snap) list;
      (** per-run {!Indq_obs.Histogram} deltas (sorted by name), dropping
          histograms this run never observed — e.g. [lp.pivots_per_reopt]
          and, when spans are enabled, each span's duration distribution *)
}

val default_config : d:int -> config
(** The paper's defaults: [s = d], [q = 3d], [eps = 0.05], [delta = 0],
    [trials = 10], heuristic pruning. *)

val all : name list
(** In the paper's reporting order:
    [Squeeze_u; Uh_random; MinD; MinR]. *)

val to_string : name -> string
(** Paper spelling: ["Squeeze-u"], ["UH-Random"], ["MinD"], ["MinR"]. *)

val of_string : string -> name
(** Case-insensitive; also accepts ["squeeze_u"], ["uh_random"].  Raises
    [Invalid_argument] on unknown names. *)

val run :
  ?trace:Indq_obs.Trace.sink ->
  ?source_n:int ->
  name ->
  config ->
  data:Indq_dataset.Dataset.t ->
  oracle:Indq_user.Oracle.t ->
  rng:Indq_util.Rng.t ->
  run_result
(** Execute one algorithm once.  The [rng] drives only algorithmic
    randomness (display-set sampling); user error randomness lives inside
    the oracle.

    [source_n] declares [data] to be the (1+eps)-skyline at [config.eps]
    (Observation 3) of a [source_n]-row catalogue — e.g. one shared by
    many runs over the same catalogue: Line 1 is skipped, and the
    [Run_started] and ["skyline"] [Prune_stage] trace events report
    [source_n] rows, exactly as the run on the whole catalogue would.
    The result is identical to that run's: the filter is deterministic.

    The run's whole execution context is explicit: the user via [oracle],
    randomness via [rng], and tracing via [trace] — when given, the sink
    is installed on the calling domain for exactly the duration of the run
    ({!Indq_obs.Trace.with_sink}) and the previous sink is restored after,
    so concurrent runs on different domains trace independently.  Without
    [trace], events flow to the calling domain's ambient sink (usually
    none).  [metrics] are the calling domain's counter deltas — exact under
    domain-parallelism because counters are domain-local. *)
