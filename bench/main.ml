(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (Section VII).  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for paper-vs-measured notes.

   Usage:
     dune exec bench/main.exe                    # everything, paper settings
     dune exec bench/main.exe -- fig2 tab3       # a subset
     dune exec bench/main.exe -- -quick          # smoke-test sizes
     dune exec bench/main.exe -- -scale 0.25 fig4
     dune exec bench/main.exe -- lp              # an experiment run by name only
   Experiments (the default run): fig1 fig2 fig3 fig4 fig5 tab3 tab4 fig6
   fig7 ablation-skyline ablation-anchors ablation-prune ablation-nonlinear.
   By name only: lp scale.

   Served-protocol load is measured by servebench/, and the fault sites
   are driven and asserted by test/test_fault.ml. *)

module Experiments = Indq_experiments.Experiments
module Report = Indq_experiments.Report
module Pool = Indq_exec.Pool

let seed = ref 2024
let scale = ref 1.0
let utilities = ref 10
let max_n = ref 1_000_000
let metrics = ref false
let jobs = ref 1
let with_times = ref true
let json_file = ref ""
let cache_dir = ref ""
let selected : string list ref = ref []

(* Sweeps recorded for -json, in run order, tagged with their experiment
   name.  Only sweep-shaped experiments (the fig and tab families) are
   recorded; the lp and ablation sections print free-form tables and stay
   text-only. *)
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

let usage = "main.exe [-quick] [-metrics] [-j N] [-no-times] [-json FILE] [-scale S] [-cache DIR] [-utilities K] [-max-n N] [-seed S] [experiments...]"

let spec =
  [
    ("-seed", Arg.Set_int seed, "random seed (default 2024)");
    ("-scale", Arg.Set_float scale,
     "dataset size scale, > 0 (default 1.0; > 1 super-sizes, e.g. the scale \
      experiment maps 100 to n=10^7)");
    ("-utilities", Arg.Set_int utilities, "random utility functions per cell (default 10)");
    ("-max-n", Arg.Set_int max_n, "cap for the fig6 scalability sweep (default 1000000)");
    ("-quick",
     Arg.Unit
       (fun () ->
         scale := 0.05;
         utilities := 3;
         max_n := 10_000),
     "smoke-test settings (scale 0.05, 3 utilities, max-n 10000); a \
      -scale, -utilities or -max-n after it wins");
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

(* --- LP micro-benchmark (lp): flat-kernel throughput, the cost of a
   value query on regions of 10 to 160 cuts, and the latency of a value
   query answered by forking a region's frozen tableau vs the
   from-scratch [Lp.solve] rebuild over the same constraints.  It exits 1
   when the two answers disagree.  The
   pivot-count distribution and the agreement audit are deterministic in
   -seed; every wall-clock figure is gated behind -no-times like the rest
   of the harness. *)

module Counter = Indq_obs.Counter
module Lp = Indq_lp.Lp
module Vec = Indq_linalg.Vec
module Mat = Indq_linalg.Mat
module Histogram = Indq_obs.Histogram
module Polytope = Indq_geom.Polytope
module Halfspace = Indq_geom.Halfspace

let h_lp_dual = Histogram.make ~unit_:Seconds "bench.lp_dual_seconds"

let h_lp_rebuild = Histogram.make ~unit_:Seconds "bench.lp_rebuild_seconds"

let run_lp () =
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
  (* Fork cost: a value query on a region of c cuts forks the region's
     frozen tableau and re-optimizes on the fork.  The dictionary tableau
     copies c rows of d cells, so the cost should grow about linearly in
     c.  Every cut passes near the simplex centre, so no region is
     empty. *)
  let forks =
    Tabulate.create ~title:"fork + optimize, d=6 (us/query)"
      ~columns:[ "cuts"; "queries"; "us/query" ]
  in
  List.iter
    (fun cuts ->
      let d = 6 and queries = 200 in
      let rng = Rng.create (!seed + cuts) in
      let centre = Vec.make d (1. /. float_of_int d) in
      let r = ref (Polytope.simplex d) in
      for _ = 1 to cuts do
        let normal = Vec.init d (fun _ -> Rng.float rng 2. -. 1.) in
        r :=
          Polytope.cut !r
            (Halfspace.ge normal (Vec.dot normal centre -. Rng.float rng 0.05))
      done;
      (* Replay the frozen tableau before the clock starts. *)
      ignore (Polytope.is_empty !r);
      let objectives =
        Array.init queries (fun _ -> Vec.init d (fun _ -> Rng.uniform rng))
      in
      let _, secs =
        Timer.time (fun () ->
            Array.iter (fun c -> ignore (Polytope.maximize !r c)) objectives)
      in
      Tabulate.add_row forks
        [ string_of_int cuts; string_of_int queries;
          gated (Printf.sprintf "%.1f" (secs /. float_of_int queries *. 1e6)) ])
    [ 10; 40; 80; 160 ];
  Tabulate.print forks;
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
    !agreements !queries !max_gap;
  if !agreements < !queries then begin
    Printf.eprintf "lp: %d of %d value queries disagree with Lp.solve\n"
      (!queries - !agreements) !queries;
    exit 1
  end

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
    ("ablation-skyline", run_ablation_skyline);
    ("ablation-anchors", run_ablation_anchors);
    ("ablation-prune", run_ablation_prune);
    ("ablation-nonlinear", run_ablation_nonlinear);
  ]

(* Runnable by name only — never part of the default "all" run: lp's
   kernel loops are pure timing, and scale's runtime and artifact counters
   depend on -scale and -cache (see the note above [run_scale]). *)
let extra_experiments = [ ("lp", run_lp); ("scale", run_scale) ]

let () =
  Arg.parse spec (fun name -> selected := name :: !selected) usage;
  if !jobs < 1 then begin
    Printf.eprintf "-j must be >= 1 (got %d)\n" !jobs;
    exit 2
  end;
  let chosen =
    match List.rev !selected with
    | [] | [ "all" ] -> List.map fst all_experiments
    | names -> names
  in
  (* The header deliberately omits -j: output must be identical across -j
     values (the CI smoke job diffs -j 1 against -j 4 under -no-times). *)
  Printf.printf
    "indistinguishability-query benchmarks (seed=%d scale=%g utilities=%d max-n=%d)\n\n%!"
    !seed !scale !utilities !max_n;
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
    output_string oc "}\n";
    close_out oc;
    Printf.eprintf "wrote %s\n" !json_file
  end
