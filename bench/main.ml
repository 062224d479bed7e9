(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (Section VII).  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured notes.

   Usage:
     dune exec bench/main.exe                    # everything, paper settings
     dune exec bench/main.exe -- fig2 tab3       # a subset
     dune exec bench/main.exe -- -quick          # smoke-test sizes
     dune exec bench/main.exe -- -scale 0.25 fig4
   Experiments: fig1 fig2 fig3 fig4 fig5 tab3 tab4 fig6 fig7 bechamel *)

module Experiments = Indq_experiments.Experiments
module Report = Indq_experiments.Report
module Pool = Indq_exec.Pool
module Wire = Indq_server.Wire
module Journal_store = Indq_server.Journal_store
module Engine = Indq_server.Engine
module Server = Indq_server.Server
module Sclient = Indq_server.Client

let seed = ref 2024
let scale = ref 1.0
let utilities = ref 10
let max_n = ref 1_000_000
let quick = ref false
let metrics = ref false
let faults = ref false
let lp_micro = ref false
let serve_bench = ref false
let jobs = ref 1
let with_times = ref true
let json_file = ref ""
let cache_dir = ref ""
let selected : string list ref = ref []

(* Sweeps recorded for -json, in run order, tagged with their experiment
   name.  Only sweep-shaped experiments (the fig and tab families) are
   recorded; the bechamel and ablation sections print free-form tables and
   stay text-only. *)
let recorded_sweeps : (string * Experiments.sweep) list ref = ref []

(* Per-round allocation probe from the -scale experiment: for every
   interactive round, (total minor words allocated by the round, minor
   words allocated inside the [@indq.alloc_free] flat-sweep kernel).
   The second number is the dynamic cross-check of the static ANA002
   claim — it must be exactly 0 every round.  Emitted as the
   "scale_probe" section of the JSON report when -json is given. *)
let scale_probe : (float * float) list ref = ref []
let current_experiment = ref ""

let record sweep =
  if !json_file <> "" then
    recorded_sweeps := (!current_experiment, sweep) :: !recorded_sweeps;
  sweep

(* Set once in [main]; sweeps are deterministic for every pool size, so the
   pool never appears in the printed output. *)
let pool : Pool.t option ref = ref None

let usage = "main.exe [-quick] [-metrics] [-j N] [-no-times] [-json FILE] [-scale S] [-cache DIR] [-utilities K] [-max-n N] [-seed S] [-faults] [-lp] [-serve] [experiments...]"

let spec =
  [
    ("-seed", Arg.Set_int seed, "random seed (default 2024)");
    ("-scale", Arg.Set_float scale,
     "dataset size scale, > 0 (default 1.0; > 1 super-sizes, e.g. the scale \
      experiment maps 100 to n=10^7)");
    ("-utilities", Arg.Set_int utilities, "random utility functions per cell (default 10)");
    ("-max-n", Arg.Set_int max_n, "cap for the fig6 scalability sweep (default 1000000)");
    ("-quick", Arg.Set quick, "smoke-test settings (scale 0.05, 3 utilities, max-n 10000)");
    ("-metrics", Arg.Set metrics, "also print mean per-run work counters per sweep");
    ("-j", Arg.Set_int jobs, "worker domains for sweep trials (default 1 = sequential)");
    ("-no-times", Arg.Clear with_times,
     "omit every wall-clock figure so output is identical across -j values");
    ("-json", Arg.Set_string json_file,
     "also write the recorded sweeps as a machine-readable JSON report");
    ("-cache", Arg.Set_string cache_dir,
     "skyline-artifact cache directory for the scale experiment (persists \
      (1+eps)-skyline row positions keyed by dataset fingerprint; omitted \
      = always recompute)");
    ("-faults", Arg.Set faults,
     "run the deterministic fault-injection matrix (one armed site at a \
      time, plan derived from -seed) instead of the default experiments");
    ("-lp", Arg.Set lp_micro,
     "run the LP micro-benchmark (flat-kernel throughput, polytope-fork \
      vs from-scratch latency) instead of the default experiments");
    ("-serve", Arg.Set serve_bench,
     "run the session-server load benchmark (socket load generation plus \
      the eviction-transparency check) instead of the default experiments");
  ]

let print_sweep sweep =
  let sweep = record sweep in
  Report.print_sweep ~with_metrics:!metrics ~with_times:!with_times sweep

let print_time_sweep ~labels sweep =
  let sweep = record sweep in
  Report.print_time_sweep ~with_metrics:!metrics ~with_times:!with_times
    ~labels sweep

let section title = Printf.printf "#### %s ####\n\n%!" title

let run_fig1 () =
  section "fig1";
  print_sweep
    (Experiments.fig1 ~utilities:!utilities ~scale:!scale ?pool:!pool
       ~seed:!seed ())

let per_dataset
    (f :
      ?utilities:int ->
      ?scale:float ->
      ?pool:Pool.t ->
      seed:int ->
      Experiments.dataset_kind ->
      Experiments.sweep) =
  List.iter
    (fun kind ->
      print_sweep
        (f ~utilities:!utilities ~scale:!scale ?pool:!pool ~seed:!seed kind))
    Experiments.[ Island_like; Nba_like; House_like ]

let run_fig2 () = section "fig2"; per_dataset Experiments.fig2
let run_fig3 () = section "fig3"; per_dataset Experiments.fig3
let run_fig4 () = section "fig4"; per_dataset Experiments.fig4
let run_fig5 () = section "fig5"; per_dataset Experiments.fig5

let dataset_labels = [ "Island"; "NBA"; "House" ]

let run_tab3 () =
  section "tab3";
  print_time_sweep ~labels:dataset_labels
    (Experiments.tab3 ~utilities:!utilities ~scale:!scale ?pool:!pool
       ~seed:!seed ())

let run_tab4 () =
  section "tab4";
  print_time_sweep ~labels:dataset_labels
    (Experiments.tab4 ~utilities:!utilities ~scale:!scale ?pool:!pool
       ~seed:!seed ())

let run_fig6 () =
  section "fig6";
  print_sweep
    (Experiments.fig6 ~utilities:!utilities ~max_n:!max_n ?pool:!pool
       ~seed:!seed ())

let run_fig7 () =
  section "fig7";
  let n = max 500 (int_of_float (!scale *. 10_000.)) in
  print_sweep
    (Experiments.fig7 ~utilities:!utilities ~n ?pool:!pool ~seed:!seed ())

(* --- Bechamel micro-benchmarks: one Test.make per running-time table ---

   Tables III and IV time whole algorithm executions; Bechamel needs
   sub-second units to sample, so each table gets a micro workload (an
   NBA-like subset) per algorithm.  Relative ordering is what these
   establish; the wall-clock tables above carry the paper-scale numbers. *)

let bechamel_micro_test ~name ~delta =
  let open Bechamel in
  let module Algo = Indq_core.Algo in
  let module Oracle = Indq_user.Oracle in
  let module Utility = Indq_user.Utility in
  let module Rng = Indq_util.Rng in
  let data =
    Indq_dataset.Realistic.nba ~n:1500 (Rng.create (!seed + 77))
  in
  let d = Indq_dataset.Dataset.dim data in
  let config = { (Algo.default_config ~d) with Algo.delta } in
  let tests =
    List.map
      (fun algo ->
        Test.make
          ~name:(Algo.to_string algo)
          (Staged.stage (fun () ->
               let rng = Rng.create !seed in
               let u = Utility.random rng ~d in
               let oracle =
                 if delta > 0. then
                   Oracle.with_error ~delta ~rng:(Rng.split rng) u
                 else Oracle.exact u
               in
               ignore (Algo.run algo config ~data ~oracle ~rng:(Rng.split rng)))))
      Algo.all
  in
  Test.make_grouped ~name tests

let run_bechamel () =
  section "bechamel micro-benchmarks (NBA-like, n=1500)";
  let open Bechamel in
  let benchmark test =
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
    in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:30 ~quota:(Time.second 2.0) ~kde:None
        ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let print_results title results =
    let t =
      Indq_util.Tabulate.create ~title ~columns:[ "algorithm"; "ms/run" ]
    in
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
    List.iter
      (fun (name, ols) ->
        let ms =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t /. 1e6
          | _ -> Float.nan
        in
        Indq_util.Tabulate.add_row t [ name; Printf.sprintf "%.2f" ms ])
      (List.sort compare rows);
    Indq_util.Tabulate.print t
  in
  print_results "Table III micro (delta=0)"
    (benchmark (bechamel_micro_test ~name:"tab3" ~delta:0.));
  print_results "Table IV micro (delta=0.05)"
    (benchmark (bechamel_micro_test ~name:"tab4" ~delta:0.05))

(* --- Ablations: design choices called out in DESIGN.md --- *)

module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Skyline = Indq_dominance.Skyline
module Algo = Indq_core.Algo
module Indist = Indq_core.Indist
module Oracle = Indq_user.Oracle
module Utility = Indq_user.Utility
module Nonlinear = Indq_user.Nonlinear
module Rng = Indq_util.Rng
module Tabulate = Indq_util.Tabulate
module Timer = Indq_util.Timer

(* Which c-skyline implementation should back Observation 3's filter? *)
let run_ablation_skyline () =
  section "ablation-skyline (c = 1.05)";
  let rng = Rng.create !seed in
  let cases =
    [
      ("island-like 2D", Indq_dataset.Realistic.island
         ~n:(max 500 (int_of_float (!scale *. 63383.))) rng);
      ("anti-corr 3D", Generator.anti_correlated rng
         ~n:(max 500 (int_of_float (!scale *. 50000.))) ~d:3);
      ("anti-corr 5D", Generator.anti_correlated rng
         ~n:(max 500 (int_of_float (!scale *. 10000.))) ~d:5);
    ]
  in
  let t =
    Tabulate.create ~title:"c-skyline implementations, seconds (result size)"
      ~columns:[ "dataset"; "SFS"; "sweep-2D"; "Strtree"; "BNL (n<=3000)" ]
  in
  List.iter
    (fun (label, data) ->
      let time f =
        let result, secs = Timer.time f in
        Printf.sprintf "%.3f (%d)" secs (Dataset.size result)
      in
      let c = 1.05 in
      let sfs = time (fun () -> Skyline.c_skyline_sfs ~c data) in
      let sweep =
        if Dataset.dim data = 2 then
          time (fun () -> Skyline.c_skyline_sweep_2d ~c data)
        else "n/a"
      in
      let store = time (fun () -> Skyline.c_skyline_store ~c data) in
      let bnl =
        if Dataset.size data <= 3000 then
          time (fun () -> Skyline.c_skyline_bnl ~c data)
        else "skipped"
      in
      Tabulate.add_row t [ label; sfs; sweep; store; bnl ])
    cases;
  Tabulate.print t

(* How many Lemma 2 anchor tuples are worth trying? *)
let run_ablation_anchors () =
  section "ablation-anchors (UH-Random on House-like)";
  let data = Experiments.load ~scale:(Float.min !scale 0.3) ~seed:!seed House_like in
  let d = Dataset.dim data in
  let t =
    Tabulate.create ~title:"Lemma 2 anchor-pool size"
      ~columns:[ "anchors"; "alpha(mean)"; "|output|(mean)"; "time(mean s)" ]
  in
  List.iter
    (fun anchors ->
      let trials = !utilities in
      let alphas = ref 0. and sizes = ref 0. and times = ref 0. in
      for trial = 0 to trials - 1 do
        let rng = Rng.create ((trial * 7919) + anchors) in
        let u = Utility.random rng ~d in
        let oracle = Oracle.exact u in
        let (result : Indq_core.Real_points.result), secs =
          Timer.time (fun () ->
              Indq_core.Real_points.run ~anchors Indq_core.Real_points.Random
                ~data ~s:d ~q:(3 * d) ~eps:0.05 ~oracle ~rng:(Rng.split rng))
        in
        alphas :=
          !alphas
          +. Indist.alpha ~eps:0.05 u ~data ~output:result.Indq_core.Real_points.output;
        sizes := !sizes +. float_of_int (Dataset.size result.Indq_core.Real_points.output);
        times := !times +. secs
      done;
      let k = float_of_int trials in
      Tabulate.add_row t
        [
          string_of_int anchors;
          Printf.sprintf "%.4f" (!alphas /. k);
          Printf.sprintf "%.1f" (!sizes /. k);
          Printf.sprintf "%.2f" (!times /. k);
        ])
    [ 1; 2; 4; 8 ];
  Tabulate.print t

(* Squeeze-u's final filter: O(n) heuristic vs exact corner test. *)
let run_ablation_prune () =
  section "ablation-prune (Squeeze-u final filter)";
  let rng = Rng.create !seed in
  let data =
    Generator.anti_correlated rng ~n:(max 500 (int_of_float (!scale *. 20000.))) ~d:4
  in
  let d = Dataset.dim data in
  let t =
    Tabulate.create ~title:"fast heuristic vs exact box-corner filter"
      ~columns:[ "filter"; "alpha(mean)"; "|output|(mean)"; "time(mean s)"; "false-neg" ]
  in
  List.iter
    (fun (label, exact_prune) ->
      let trials = !utilities in
      let alphas = ref 0. and sizes = ref 0. and times = ref 0. in
      let fn = ref 0 in
      for trial = 0 to trials - 1 do
        let trial_rng = Rng.create ((trial * 6011) + 3) in
        let u = Utility.random trial_rng ~d in
        let oracle = Oracle.exact u in
        let config = { (Algo.default_config ~d) with Algo.exact_prune } in
        let result = Algo.run Algo.Squeeze_u config ~data ~oracle ~rng:trial_rng in
        alphas := !alphas +. Indist.alpha ~eps:0.05 u ~data ~output:result.Algo.output;
        sizes := !sizes +. float_of_int (Dataset.size result.Algo.output);
        times := !times +. result.Algo.seconds;
        if Indist.has_false_negatives ~eps:0.05 u ~data ~output:result.Algo.output
        then incr fn
      done;
      let k = float_of_int trials in
      Tabulate.add_row t
        [
          label;
          Printf.sprintf "%.4f" (!alphas /. k);
          Printf.sprintf "%.1f" (!sizes /. k);
          Printf.sprintf "%.3f" (!times /. k);
          string_of_int !fn;
        ])
    [ ("fast (paper IV-A)", false); ("exact corners", true) ];
  Tabulate.print t

(* Open question 3: how do the linear-assuming algorithms fare when the
   user's real utility is concave?  alpha is measured under the true
   non-linear utility. *)
let run_ablation_nonlinear () =
  section "ablation-nonlinear (concave-power users vs linear algorithms)";
  let rng = Rng.create !seed in
  let data =
    Generator.independent rng ~n:(max 500 (int_of_float (!scale *. 10000.))) ~d:3
  in
  let d = Dataset.dim data in
  let t =
    Tabulate.create
      ~title:"Squeeze-u under f(x) = sum w_i x_i^e  (e = 1 is the linear case)"
      ~columns:[ "exponent e"; "alpha(mean)"; "false-neg runs"; "|output|(mean)"; "|I|(mean)" ]
  in
  List.iter
    (fun exponent ->
      let trials = !utilities in
      let alphas = ref 0. and sizes = ref 0. and truth_sizes = ref 0. in
      let fn = ref 0 in
      for trial = 0 to trials - 1 do
        let trial_rng = Rng.create ((trial * 104729) + 17) in
        let user = Nonlinear.random_concave trial_rng ~d ~exponent in
        let f = Nonlinear.value user in
        let oracle = Nonlinear.oracle user in
        let config = Algo.default_config ~d in
        let result =
          Algo.run Algo.Squeeze_u config ~data ~oracle ~rng:(Rng.split trial_rng)
        in
        alphas := !alphas +. Indist.alpha_fn ~eps:0.05 f ~data ~output:result.Algo.output;
        sizes := !sizes +. float_of_int (Dataset.size result.Algo.output);
        truth_sizes :=
          !truth_sizes
          +. float_of_int (Dataset.size (Indist.query_exact_fn ~eps:0.05 f data));
        if Indist.has_false_negatives_fn ~eps:0.05 f ~data ~output:result.Algo.output
        then incr fn
      done;
      let k = float_of_int trials in
      Tabulate.add_row t
        [
          Printf.sprintf "%.1f" exponent;
          Printf.sprintf "%.4f" (!alphas /. k);
          string_of_int !fn;
          Printf.sprintf "%.1f" (!sizes /. k);
          Printf.sprintf "%.1f" (!truth_sizes /. k);
        ])
    [ 1.0; 0.8; 0.6; 0.4 ];
  Tabulate.print t;
  print_endline
    "e = 1 must show alpha ~ 0 and no false negatives; smaller e (more concave)";
  print_endline
    "degrades both -- quantifying the cost of the paper's linearity assumption.\n"

(* --- Fault-injection matrix (-faults): arm one site at a time with the
   trigger the seeded plan assigns it, drive a workload that reaches the
   site, and report whether the stack recovered or surfaced its typed
   error.  Entirely deterministic in -seed: same plan, same injections,
   same outcomes. *)

module Fault = Indq_fault.Fault
module Counter = Indq_obs.Counter
module Lp = Indq_lp.Lp
module Vec = Indq_linalg.Vec

let trigger_to_string = function
  | Fault.Never -> "never"
  | Fault.Once k -> Printf.sprintf "once@reach %d" k
  | Fault.Every k -> Printf.sprintf "every %d" k
  | Fault.After k -> Printf.sprintf "after %d" k
  | Fault.Always -> "always"

(* Enough reaches to cover any [Once k] the seeded plan can pick (k <= 4). *)
let fault_reaches = 8

let drive_dataset_load () =
  let csv = "0,1,0.5\n1,0.25,1\n2,0.75,0.125\n" in
  let errors = ref 0 and ok = ref 0 in
  for _ = 1 to fault_reaches do
    match Dataset.of_csv csv with
    | _ -> incr ok
    | exception Dataset.Load_error _ -> incr errors
  done;
  Printf.sprintf "typed Load_error x%d, %d clean loads" !errors !ok

(* A small non-degenerate LP; the armed site decides whether a given solve
   runs clean, recovers via the Bland continuation, or fails typed. *)
let drive_lp site =
  let constraints =
    [
      { Lp.coeffs = Vec.of_array [| 1.; 2. |]; relation = Lp.Le; rhs = 4. };
      { Lp.coeffs = Vec.of_array [| 3.; 1. |]; relation = Lp.Le; rhs = 6. };
    ]
  in
  let optimal = ref 0 and failed = ref 0 and retried = ref 0 in
  for _ = 1 to fault_reaches do
    let before = Counter.get "retry.attempts" in
    (match
       Lp.solve ~n:2 ~objective:(Vec.of_array [| 1.; 1. |]) `Maximize constraints
     with
    | Lp.Optimal _ -> incr optimal
    | Lp.Failed _ -> incr failed
    | Lp.Infeasible | Lp.Unbounded -> assert false);
    if Counter.get "retry.attempts" > before then incr retried
  done;
  match site with
  | `Cap ->
    Printf.sprintf "Bland continuation recovered x%d, %d optimal, %d failed"
      !retried !optimal !failed
  | `Nan ->
    Printf.sprintf "typed Failed (Numerical) x%d, %d optimal" !failed !optimal

(* A whole interactive run with a lying simulated user: the run must finish
   and degrade (collapse detection / widened restart), never crash. *)
let drive_oracle_contradiction () =
  let rng = Rng.create !seed in
  let data = Generator.anti_correlated rng ~n:400 ~d:3 in
  let d = Dataset.dim data in
  let config = Algo.default_config ~d in
  let outcomes =
    List.map
      (fun algo ->
        let u = Utility.random rng ~d in
        let oracle = Oracle.exact u in
        let result = Algo.run algo config ~data ~oracle ~rng:(Rng.split rng) in
        Printf.sprintf "%s |out|=%d" (Algo.to_string algo)
          (Dataset.size result.Algo.output))
      [ Algo.Uh_random; Algo.Squeeze_u ]
  in
  let collapses = Counter.get "region.collapses" in
  let widened = Counter.get "squeeze_u2.widened_restarts" in
  Printf.sprintf "completed (%s); collapses=%g widened=%g"
    (String.concat ", " outcomes) collapses widened

(* Chunks are retried on simulated worker death; output must stay
   bit-identical to the fault-free map. *)
let drive_worker_death () =
  let arr = Array.init 64 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expected = Array.map f arr in
  Pool.with_pool ~domains:2 (fun p ->
      match Pool.parallel_map ~chunks:8 p f arr with
      | out ->
        if out = expected then "recovered: output bit-identical"
        else "RECOVERY MISMATCH"
      | exception Fault.Injected _ ->
        "retries exhausted: typed Fault.Injected")

let bench_temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let serve_hello id =
  {
    Wire.id;
    algo = Algo.Squeeze_u;
    data = "independent";
    n = 30;
    d = 2;
    seed = 5;
    s = 0;
    q = 0;
    eps = 0.;
    delta = 0.;
  }

(* Every fsync failure is absorbed by the durable sink: appends keep
   succeeding, the records all land on disk, and only the
   serve.sync_failures counter betrays the injection. *)
let drive_journal_sync () =
  let dir = bench_temp_dir "indq-bench-sync" in
  let before = Counter.get "serve.sync_failures" in
  let sink =
    Journal_store.create ~dir ~fsync:Journal_store.Always (serve_hello "sync")
  in
  let entries =
    List.init (fault_reaches - 1) (fun i ->
        Indq_core.Session.Answered { round = i + 1; options = 2; choice = 0 })
  in
  List.iter (Journal_store.append sink) entries;
  Journal_store.close sink;
  let failures = Counter.get "serve.sync_failures" -. before in
  match Journal_store.load ~dir "sync" with
  | Ok l
    when l.Journal_store.entries = entries && not l.Journal_store.torn_tail ->
    Printf.sprintf "absorbed %g fsync failure(s), all %d records durable"
      failures (List.length entries)
  | Ok _ -> "RECORDS MISMATCH AFTER SYNC FAILURE"
  | Error _ -> "JOURNAL FAILED TO LOAD"

(* A torn append poisons the sink; recovery reloads (dropping the torn
   tail), reopens with a rewrite, and re-appends the failed record.  The
   final journal must hold every record exactly once. *)
let drive_journal_torn_write () =
  let dir = bench_temp_dir "indq-bench-torn" in
  let torn = ref 0 in
  (* A tear can land on the header write itself; creation is atomic, so
     recovery there is delete-and-retry. *)
  let rec fresh () =
    match
      Journal_store.create ~dir ~fsync:Journal_store.Never (serve_hello "torn")
    with
    | sink -> sink
    | exception Journal_store.Torn _ ->
      incr torn;
      Sys.remove (Journal_store.path ~dir "torn");
      fresh ()
  in
  let sink = ref (fresh ()) in
  let entries =
    List.init fault_reaches (fun i ->
        Indq_core.Session.Answered { round = i + 1; options = 2; choice = 10 + i })
  in
  List.iter
    (fun e ->
      match Journal_store.append !sink e with
      | () -> ()
      | exception Journal_store.Torn _ -> (
        incr torn;
        Journal_store.close !sink;
        match Journal_store.load ~dir "torn" with
        | Ok loaded ->
          sink :=
            Journal_store.reopen ~dir ~fsync:Journal_store.Never
              ~rewrite:loaded.Journal_store.torn_tail loaded "torn";
          Journal_store.append !sink e
        | Error _ -> ()))
    entries;
  Journal_store.close !sink;
  match Journal_store.load ~dir "torn" with
  | Ok l
    when l.Journal_store.entries = entries && not l.Journal_store.torn_tail ->
    Printf.sprintf "tear recovered x%d, journal intact (%d records)" !torn
      (List.length entries)
  | Ok _ | Error _ -> "JOURNAL DAMAGED AFTER TORN WRITE"

(* The engine swallows exactly one reply; session state stays intact, so
   the following request sees the same pending round. *)
let drive_client_disconnect () =
  let dir = bench_temp_dir "indq-bench-disc" in
  let engine =
    Engine.create
      { (Engine.default_config ~dir) with Engine.fsync = Journal_store.Never }
  in
  let outcomes =
    List.init fault_reaches (fun i ->
        Engine.handle engine
          (if i = 0 then Wire.Hello (serve_hello "c")
           else Wire.Ask { id = "c" }))
  in
  Engine.shutdown engine;
  let count p = List.length (List.filter p outcomes) in
  let dropped =
    count (function Engine.Disconnect -> true | _ -> false)
  in
  let clean =
    count (function
      | Engine.Reply (Wire.R_ask _ | Wire.R_done _) -> true
      | _ -> false)
  in
  Printf.sprintf "reply dropped x%d, %d clean replies, session intact" dropped
    clean

let run_faults () =
  section (Printf.sprintf "fault matrix (plan seed=%d)" !seed);
  let plan = Fault.random_plan ~seed:!seed in
  let t =
    Tabulate.create ~title:"one armed site per row, all others quiet"
      ~columns:[ "site"; "trigger"; "injected"; "outcome" ]
  in
  List.iter
    (fun site ->
      let trigger = List.assoc site plan.Fault.arms in
      let site_plan = Fault.plan ~seed:!seed [ (site, trigger) ] in
      let before = Counter.snapshot () in
      let outcome =
        Fault.with_plan site_plan (fun () ->
            match site with
            | "inject.dataset_load" -> drive_dataset_load ()
            | "inject.lp_iteration_cap" -> drive_lp `Cap
            | "inject.lp_nan_pivot" -> drive_lp `Nan
            | "inject.oracle_contradiction" -> drive_oracle_contradiction ()
            | "inject.worker_death" -> drive_worker_death ()
            | "inject.journal_sync" -> drive_journal_sync ()
            | "inject.journal_torn_write" -> drive_journal_torn_write ()
            | "inject.client_disconnect" -> drive_client_disconnect ()
            | _ -> "no driver for this site")
      in
      let delta = Counter.since before in
      let injected =
        match List.assoc_opt "fault.injected" delta with
        | Some v -> v
        | None -> 0.
      in
      Tabulate.add_row t
        [ site; trigger_to_string trigger; Printf.sprintf "%g" injected;
          outcome ])
    Fault.site_names;
  Tabulate.print t

(* --- LP micro-benchmark (-lp): flat-kernel throughput and the latency of
   a value query answered by forking a region's frozen tableau vs the
   from-scratch [Lp.solve] rebuild over the same constraints.  The
   pivot-count distribution and the agreement audit are deterministic in
   -seed; every wall-clock figure is gated behind -no-times like the rest
   of the harness. *)

module Mat = Indq_linalg.Mat
module Histogram = Indq_obs.Histogram
module Polytope = Indq_geom.Polytope
module Halfspace = Indq_geom.Halfspace

let h_lp_dual = Histogram.make ~unit_:Seconds "bench.lp_dual_seconds"

let h_lp_rebuild = Histogram.make ~unit_:Seconds "bench.lp_rebuild_seconds"

let run_lp_micro () =
  section (Printf.sprintf "lp micro-benchmark (seed=%d)" !seed);
  let ms v = Printf.sprintf "%.4f" (v *. 1e3) in
  let gated v = if !with_times then v else "-" in
  (* Kernel throughput: ns per operation over the flat Bigarray buffers.
     Each loop body is one kernel call; the checksum keeps the work live. *)
  let kernels =
    Tabulate.create ~title:"kernel throughput (ns/op)"
      ~columns:[ "n"; "dot"; "axpy_ip"; "pivot row" ]
  in
  List.iter
    (fun n ->
      let rng = Rng.create !seed in
      let a = Vec.init n (fun _ -> Rng.uniform rng) in
      let b = Vec.init n (fun _ -> Rng.uniform rng) in
      let iters = max 1_000 (2_000_000 / n) in
      let checksum = ref 0. in
      let ns_per f ops =
        let _, secs = Timer.time f in
        Printf.sprintf "%.1f" (secs /. float_of_int ops *. 1e9)
      in
      let dot =
        ns_per
          (fun () ->
            for _ = 1 to iters do
              checksum := !checksum +. Vec.dot a b
            done)
          iters
      in
      let axpy =
        let y = Vec.copy b in
        ns_per
          (fun () ->
            for _ = 1 to iters do
              Vec.axpy_ip 1e-9 a y
            done)
          iters
      in
      let pivot =
        (* One simplex pivot: normalize the pivot row, eliminate it from
           every other row — the Live.add_cut / optimize inner loop. *)
        let rows = 32 in
        let m =
          Mat.of_rows
            (Array.init rows (fun _ -> Vec.init n (fun _ -> Rng.uniform rng)))
        in
        let sweeps = max 1 (iters / rows) in
        ns_per
          (fun () ->
            for _ = 1 to sweeps do
              Mat.scale_row m 0 1.0000001;
              for r = 1 to rows - 1 do
                Mat.add_scaled_row m ~src:0 ~dst:r 1e-9
              done
            done)
          (sweeps * rows)
      in
      ignore !checksum;
      Tabulate.add_row kernels
        [ string_of_int n; gated dot; gated axpy; gated pivot ])
    [ 16; 128; 1024 ];
  Tabulate.print kernels;
  (* Fork vs rebuild: random shrinking-region families.  The dual path is
     the audited polytope wrapper (fork the frozen tableau, re-optimize);
     the rebuild solves the same constraint list from scratch with
     [Lp.solve]. *)
  let rng = Rng.create !seed in
  let families = 60 in
  let agreements = ref 0 and queries = ref 0 and max_gap = ref 0. in
  let before_counters = Counter.snapshot () in
  let before_hists = Histogram.snapshot () in
  for _ = 1 to families do
    let d = 3 + Rng.int rng 3 in
    let r = ref (Polytope.simplex d) in
    let cuts = 4 + Rng.int rng 5 in
    for _ = 1 to cuts do
      let normal = Vec.init d (fun _ -> Rng.float rng 2. -. 1.) in
      r := Polytope.cut !r (Halfspace.ge normal (Rng.float rng 0.4 -. 0.2));
      let objective = Vec.init d (fun _ -> Rng.float rng 1.) in
      let dual, dual_secs =
        Timer.time (fun () ->
            if Polytope.is_empty !r then None else Polytope.maximize !r objective)
      in
      Histogram.observe h_lp_dual dual_secs;
      let rebuilt, rebuild_secs =
        Timer.time (fun () ->
            Lp.solve ~n:d ~objective `Maximize (Polytope.to_lp_constraints !r))
      in
      Histogram.observe h_lp_rebuild rebuild_secs;
      incr queries;
      match (dual, rebuilt) with
      | None, Lp.Infeasible -> incr agreements
      | Some (v, _), Lp.Optimal s ->
        max_gap := Float.max !max_gap (Float.abs (v -. s.Lp.objective));
        if Float.abs (v -. s.Lp.objective) <= 1e-6 then incr agreements
      | _ -> ()
    done
  done;
  let hist_delta = Histogram.since before_hists in
  let counter_delta = Counter.since before_counters in
  let counter name =
    match List.assoc_opt name counter_delta with Some v -> v | None -> 0.
  in
  let latency =
    Tabulate.create ~title:"value-query latency (ms)"
      ~columns:[ "path"; "queries"; "mean"; "p50"; "p90"; "p99" ]
  in
  let latency_row label h =
    let s =
      match List.assoc_opt (Histogram.name h) hist_delta with
      | Some s -> s
      | None -> Histogram.empty (Histogram.kind h)
    in
    Tabulate.add_row latency
      [ label; string_of_int s.Histogram.count;
        gated (ms (Histogram.mean s)); gated (ms (Histogram.p50 s));
        gated (ms (Histogram.p90 s)); gated (ms (Histogram.p99 s)) ]
  in
  latency_row "dual (polytope fork)" h_lp_dual;
  latency_row "from-scratch (Lp.solve)" h_lp_rebuild;
  Tabulate.print latency;
  let pivots =
    Tabulate.create ~title:"pivot work (deterministic)"
      ~columns:[ "histogram"; "solves"; "pivots"; "p50"; "p90"; "p99" ]
  in
  let pivots_row name =
    let s =
      match List.assoc_opt name hist_delta with
      | Some s -> s
      | None -> Histogram.empty Histogram.Count
    in
    Tabulate.add_row pivots
      [ name; string_of_int s.Histogram.count;
        Printf.sprintf "%g" s.Histogram.sum;
        Printf.sprintf "%g" (Histogram.p50 s);
        Printf.sprintf "%g" (Histogram.p90 s);
        Printf.sprintf "%g" (Histogram.p99 s) ]
  in
  pivots_row "lp.pivots_per_reopt";
  Tabulate.print pivots;
  Printf.printf "counters: lp.dual_reopt=%g lp.dual_pivots=%g lp.solves=%g\n"
    (counter "lp.dual_reopt") (counter "lp.dual_pivots") (counter "lp.solves");
  Printf.printf "agreement: %d/%d fork vs from-scratch (max |delta| = %.3g)\n\n"
    !agreements !queries !max_gap

(* --- Serve bench (-serve): the crash-tolerant session server under load.

   Phase A drives real clients over a Unix-domain socket against a server
   running in its own domain; counters are domain-local, so every figure
   comes back over the wire through the [stats] op.  Phase B replays one
   interleaved schedule through two engines — one starved to
   [max_hydrated = 3], one uncapped — and byte-compares the final encoded
   [done] lines: eviction plus rehydration must be invisible in the
   results, while [serve.evictions] proves the round trips happened. *)

let serve_json = ref ""

let run_serve () =
  section "serve";
  let gated v = if !with_times then v else "-" in
  let ms v = Printf.sprintf "%.3f" (v *. 1e3) in
  (* Phase A: socket load generation. *)
  let sessions = if !quick then 30 else 150 in
  let root = bench_temp_dir "indq-serve" in
  let sock = Filename.concat root "indq.sock" in
  let config =
    {
      (Engine.default_config ~dir:(Filename.concat root "journals")) with
      Engine.allow_shutdown = true;
    }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun () -> Atomic.set ready true)
          config (Server.Unix_path sock))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let client = Sclient.connect (Server.Unix_path sock) in
  let load_hello i =
    {
      Wire.id = Printf.sprintf "load-%04d" i;
      algo = Algo.Squeeze_u;
      data = "independent";
      n = 400;
      d = 3;
      seed = !seed + i;
      s = 0;
      q = 0;
      eps = 0.;
      delta = 0.;
    }
  in
  let total_rounds = ref 0 in
  let drive i =
    let rec loop = function
      | Wire.R_ask { id; round; options } ->
        incr total_rounds;
        let choice = (round + i) mod Array.length options in
        loop (Sclient.rpc client (Wire.Answer { id; round; choice }))
      | Wire.R_done _ -> ()
      | other ->
        failwith ("serve bench: unexpected reply " ^ Wire.response_to_line other)
    in
    loop (Sclient.rpc client (Wire.Hello (load_hello i)))
  in
  let (), secs =
    Timer.time (fun () ->
        for i = 0 to sessions - 1 do
          drive i
        done)
  in
  let counters, lat =
    match Sclient.rpc client Wire.Stats with
    | Wire.R_stats { counters; round_latency } -> (counters, round_latency)
    | other ->
      failwith ("serve bench: unexpected stats reply " ^ Wire.response_to_line other)
  in
  (match Sclient.rpc client Wire.Shutdown with
  | Wire.R_ok _ -> ()
  | other ->
    failwith ("serve bench: shutdown refused: " ^ Wire.response_to_line other));
  Sclient.close client;
  Domain.join server;
  let counter name =
    match List.assoc_opt name counters with Some v -> v | None -> 0.
  in
  let a = Tabulate.create ~title:"phase A: socket load" ~columns:[ "metric"; "value" ] in
  Tabulate.add_row a [ "sessions"; string_of_int sessions ];
  Tabulate.add_row a [ "rounds answered"; string_of_int !total_rounds ];
  Tabulate.add_row a [ "serve.sessions"; Printf.sprintf "%g" (counter "serve.sessions") ];
  Tabulate.add_row a [ "serve.requests"; Printf.sprintf "%g" (counter "serve.requests") ];
  Tabulate.add_row a [ "serve.journal_syncs"; Printf.sprintf "%g" (counter "serve.journal_syncs") ];
  Tabulate.add_row a [ "serve.wire_errors"; Printf.sprintf "%g" (counter "serve.wire_errors") ];
  Tabulate.add_row a [ "wall seconds"; gated (Printf.sprintf "%.2f" secs) ];
  Tabulate.add_row a
    [ "sessions/sec"; gated (Printf.sprintf "%.1f" (float_of_int sessions /. secs)) ];
  Tabulate.add_row a
    [ Printf.sprintf "serve.round_latency ms (n=%d)" lat.Wire.p_count;
      gated
        (Printf.sprintf "p50=%s p90=%s p99=%s" (ms lat.Wire.p50)
           (ms lat.Wire.p90) (ms lat.Wire.p99)) ];
  Tabulate.print a;
  (* Phase B: eviction transparency on one interleaved schedule. *)
  let clients_b = 12 in
  let evict_hello i =
    {
      Wire.id = Printf.sprintf "evict-%02d" i;
      algo = Algo.Squeeze_u;
      data = "anti_correlated";
      n = 300;
      d = 2;
      seed = !seed + (7 * i);
      s = 0;
      q = 0;
      eps = 0.;
      delta = 0.;
    }
  in
  let run_schedule ~max_hydrated =
    let dir = bench_temp_dir "indq-evict" in
    let engine =
      Engine.create
        {
          (Engine.default_config ~dir) with
          Engine.max_hydrated;
          fsync = Journal_store.Never;
        }
    in
    let before = Counter.snapshot () in
    let finals = Array.make clients_b "" in
    let reply i = function
      | Engine.Reply (Wire.R_done _ as r) ->
        finals.(i) <- Wire.response_to_line r
      | Engine.Reply (Wire.R_ask _) -> ()
      | _ -> failwith "serve bench: unexpected engine outcome"
    in
    for i = 0 to clients_b - 1 do
      reply i (Engine.handle engine (Wire.Hello (evict_hello i)))
    done;
    (* Round-robin, one answer per session per pass: with the starved
       capacity every pass churns the LRU through all twelve sessions. *)
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to clients_b - 1 do
        if finals.(i) = "" then begin
          progress := true;
          let id = (evict_hello i).Wire.id in
          match Engine.handle engine (Wire.Ask { id }) with
          | Engine.Reply (Wire.R_done _ as r) ->
            finals.(i) <- Wire.response_to_line r
          | Engine.Reply (Wire.R_ask { id; round; options }) ->
            let choice = (round + i) mod Array.length options in
            reply i (Engine.handle engine (Wire.Answer { id; round; choice }))
          | _ -> failwith "serve bench: unexpected engine outcome"
        end
      done
    done;
    let delta = Counter.since before in
    Engine.shutdown engine;
    let v name =
      match List.assoc_opt name delta with Some x -> x | None -> 0.
    in
    (Array.to_list finals, v "serve.evictions", v "serve.hydrations")
  in
  let starved, ev_starved, hy_starved = run_schedule ~max_hydrated:3 in
  let uncapped, ev_uncapped, _ = run_schedule ~max_hydrated:1024 in
  let identical = starved = uncapped in
  let b =
    Tabulate.create ~title:"phase B: eviction transparency (12 sessions)"
      ~columns:[ "engine"; "evictions"; "hydrations"; "final done lines" ]
  in
  Tabulate.add_row b
    [ "max_hydrated=3"; Printf.sprintf "%g" ev_starved;
      Printf.sprintf "%g" hy_starved;
      (if identical then "byte-identical" else "BYTE MISMATCH") ];
  Tabulate.add_row b
    [ "max_hydrated=1024"; Printf.sprintf "%g" ev_uncapped; "-"; "reference" ];
  Tabulate.print b;
  if not identical then
    print_endline "EVICTION TRANSPARENCY VIOLATED: results differ\n";
  if ev_starved <= 0. then
    print_endline "EVICTION CHECK INCONCLUSIVE: starved engine never evicted\n";
  serve_json :=
    Printf.sprintf
      "{\"sessions\":%d,\"rounds\":%d,\"seconds\":%.6f,\"sessions_per_sec\":%.2f,\"round_latency_ms\":{\"count\":%d,\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f},\"eviction_transparency\":{\"identical\":%b,\"starved_evictions\":%g,\"starved_hydrations\":%g}}"
      sessions !total_rounds secs
      (float_of_int sessions /. secs)
      lat.Wire.p_count
      (lat.Wire.p50 *. 1e3) (lat.Wire.p90 *. 1e3) (lat.Wire.p99 *. 1e3)
      identical ev_starved hy_starved

(* --- Scale bench: the full columnar path at paper-exceeding sizes ---

   Generates an anti-correlated 3-D dataset of [scale * 100_000] rows (so
   -scale 100 is n = 10^7), builds the packed STR-tree straight off the
   store buffer, runs the Observation 3 filter (artifact-cached when
   -cache names a directory), then drives one MinR session over the
   pruned rows through [Session] so [session.round_latency] measures real
   per-round interaction latency.  Deliberately looked up outside
   [all_experiments]: its runtime is set by -scale, and with -cache its
   artifact counters depend on what previous runs left on disk, so it
   must never ride along with the deterministic default suite. *)

module Strtree = Indq_rtree.Strtree
module Store = Indq_dataset.Store
module Session = Indq_core.Session
module Artifact = Indq_dominance.Artifact

let run_scale () =
  let n = max 500 (int_of_float (!scale *. 100_000.)) in
  section (Printf.sprintf "scale (anti-correlated d=3, n=%d)" n);
  let gated v = if !with_times then v else "-" in
  let secs v = gated (Printf.sprintf "%.2f" v) in
  let ms v = gated (Printf.sprintf "%.2f" (v *. 1e3)) in
  let rng = Rng.create !seed in
  let data, gen_secs =
    Timer.time (fun () -> Generator.anti_correlated rng ~n ~d:3)
  in
  let before_counters = Counter.snapshot () in
  let before_hists = Histogram.snapshot () in
  let tree, build_secs =
    Timer.time (fun () ->
        Strtree.build ~dim:3 (Store.data (Dataset.store data)) n)
  in
  let eps = 0.05 in
  let pruned, prune_secs =
    Timer.time (fun () ->
        if !cache_dir = "" then Skyline.prune_eps_dominated ~eps data
        else Artifact.prune_eps_dominated_cached ~dir:!cache_dir ~eps data)
  in
  let d = Dataset.dim pruned in
  let u = Utility.random rng ~d in
  let config = Algo.default_config ~d in
  let session =
    Session.start Algo.MinR config ~data:pruned ~rng:(Rng.split rng)
  in
  let result, drive_secs =
    Timer.time (fun () ->
        let rec loop () =
          match Session.current session with
          | Session.Asking options ->
            let minor0 = Gc.minor_words () in
            let sweep0 = Counter.get "prune.sweep_minor_words" in
            Session.answer session (Utility.best_index u options);
            let minor1 = Gc.minor_words () in
            let sweep1 = Counter.get "prune.sweep_minor_words" in
            scale_probe := (minor1 -. minor0, sweep1 -. sweep0) :: !scale_probe;
            loop ()
          | Session.Finished result -> result
        in
        loop ())
  in
  let counters = Counter.since before_counters in
  let hists = Histogram.since before_hists in
  let counter name =
    match List.assoc_opt name counters with Some v -> v | None -> 0.
  in
  let t =
    Tabulate.create ~title:"columnar path, end to end"
      ~columns:[ "stage"; "output"; "seconds" ]
  in
  Tabulate.add_row t
    [ "generate";
      Printf.sprintf "%d rows, fingerprint %s" n (Dataset.fingerprint data);
      secs gen_secs ];
  Tabulate.add_row t
    [ "strtree build";
      Printf.sprintf "depth %d, %d leaves, %g nodes" (Strtree.depth tree)
        (Strtree.leaf_count tree)
        (counter "rtree.bulk_nodes");
      secs build_secs ];
  Tabulate.add_row t
    [ Printf.sprintf "prune eps=%g%s" eps
        (if !cache_dir = "" then "" else " (cached)");
      Printf.sprintf "%d rows (hits %g misses %g writes %g)"
        (Dataset.size pruned)
        (counter "skyline.artifact_hits")
        (counter "skyline.artifact_misses")
        (counter "skyline.artifact_writes");
      secs prune_secs ];
  Tabulate.add_row t
    [ "MinR session";
      Printf.sprintf "%d questions, |output|=%d"
        (Session.questions_asked session)
        (Dataset.size result.Algo.output);
      secs drive_secs ];
  Tabulate.print t;
  let rl =
    match List.assoc_opt "session.round_latency" hists with
    | Some s -> s
    | None -> Histogram.empty Histogram.Seconds
  in
  Printf.printf
    "session.round_latency (ms): rounds=%d p50=%s p90=%s p99=%s\n\n%!"
    rl.Histogram.count
    (ms (Histogram.p50 rl))
    (ms (Histogram.p90 rl))
    (ms (Histogram.p99 rl));
  let rounds = List.rev !scale_probe in
  let sweep_total = List.fold_left (fun a (_, s) -> a +. s) 0. rounds in
  Printf.printf
    "allocation probe: rounds=%d sweep_minor_words(total)=%g%s\n\n%!"
    (List.length rounds) sweep_total
    (if Float.equal sweep_total 0. then " (alloc-free claim holds)"
     else " (ALLOC-FREE CLAIM VIOLATED)");
  if !metrics then begin
    let mt =
      Tabulate.create ~title:"work histograms (this run)"
        ~columns:[ "histogram"; "count"; "sum" ]
    in
    List.iter
      (fun (hname, s) ->
        let sum =
          match s.Histogram.s_unit with
          | Histogram.Seconds -> gated (Printf.sprintf "%.2fs" s.Histogram.sum)
          | Histogram.Count -> Printf.sprintf "%g" s.Histogram.sum
        in
        Tabulate.add_row mt
          [ hname; string_of_int s.Histogram.count; sum ])
      hists;
    Tabulate.print mt;
    let ct =
      Tabulate.create ~title:"work counters (this run)"
        ~columns:[ "counter"; "delta" ]
    in
    List.iter
      (fun (cname, v) ->
        Tabulate.add_row ct [ cname; Printf.sprintf "%g" v ])
      counters;
    Tabulate.print ct
  end

let all_experiments =
  [
    ("fig1", run_fig1);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("tab3", run_tab3);
    ("tab4", run_tab4);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("bechamel", run_bechamel);
    ("ablation-skyline", run_ablation_skyline);
    ("ablation-anchors", run_ablation_anchors);
    ("ablation-prune", run_ablation_prune);
    ("ablation-nonlinear", run_ablation_nonlinear);
  ]

(* Runnable by name only — never part of the default "all" run (see the
   determinism note above [run_scale]). *)
let extra_experiments = [ ("scale", run_scale) ]

let () =
  Arg.parse spec (fun name -> selected := name :: !selected) usage;
  if !quick then begin
    scale := 0.05;
    utilities := 3;
    max_n := 10_000
  end;
  if !jobs < 1 then begin
    Printf.eprintf "-j must be >= 1 (got %d)\n" !jobs;
    exit 2
  end;
  let chosen =
    match List.rev !selected with
    | [] when !faults || !lp_micro || !serve_bench -> []
    | [] | [ "all" ] -> List.map fst all_experiments
    | names -> names
  in
  (* The header deliberately omits -j: output must be identical across -j
     values (the CI smoke job diffs -j 1 against -j 4 under -no-times). *)
  Printf.printf
    "indistinguishability-query benchmarks (seed=%d scale=%g utilities=%d max-n=%d)\n\n%!"
    !seed !scale !utilities !max_n;
  if !faults then run_faults ();
  if !lp_micro then run_lp_micro ();
  if !serve_bench then run_serve ();
  Pool.with_pool ~domains:!jobs (fun p ->
      if Pool.size p > 1 then pool := Some p;
      let total_start = Timer.cpu () in
      List.iter
        (fun name ->
          match
            List.assoc_opt name (all_experiments @ extra_experiments)
          with
          | Some f ->
            current_experiment := name;
            let start = Timer.cpu () in
            f ();
            if !with_times then
              Printf.printf "[%s completed in %.1fs]\n\n%!" name
                (Timer.cpu () -. start)
          | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", "
                 (List.map fst (all_experiments @ extra_experiments)));
            exit 2)
        chosen;
      if !with_times then
        Printf.printf "total: %.1fs\n" (Timer.cpu () -. total_start));
  if !json_file <> "" then begin
    let oc = open_out !json_file in
    Printf.fprintf oc
      "{\"seed\":%d,\"scale\":%g,\"utilities\":%d,\"max_n\":%d,\"sweeps\":[\n"
      !seed !scale !utilities !max_n;
    List.rev !recorded_sweeps
    |> List.iteri (fun i (name, sweep) ->
           Printf.fprintf oc "%s{\"experiment\":\"%s\",\"sweep\":%s}" (if i = 0 then "" else ",\n") name
             (Report.sweep_to_json ~with_times:!with_times sweep));
    output_string oc "\n]";
    (match List.rev !scale_probe with
    | [] -> ()
    | rounds ->
      let nums sel =
        rounds |> List.map (fun r -> Printf.sprintf "%g" (sel r))
        |> String.concat ","
      in
      Printf.fprintf oc
        ",\n\"scale_probe\":{\"rounds\":%d,\"minor_words\":[%s],\"sweep_minor_words\":[%s]}"
        (List.length rounds) (nums fst) (nums snd));
    if !serve_json <> "" then
      Printf.fprintf oc ",\n\"serve\":%s" !serve_json;
    output_string oc "}\n";
    close_out oc;
    Printf.eprintf "wrote %s\n" !json_file
  end
