(* indq: command-line front end for the indistinguishability-query library.

   Subcommands:
     generate     write a synthetic / simulated data set as CSV
     ingest       stream a data source into a columnar binary .store file
     precompute   persist a data set's (1+eps)-skyline artifact
     exact        ground-truth I(f, eps) for a known utility vector
     simulate     run an interactive algorithm against a simulated user
     run          alias of simulate
     interactive  run an algorithm with YOU as the user (choices on stdin)
     experiment   run one of the paper's evaluation experiments
     profile      replay a JSONL trace into a per-phase profile
     serve        crash-tolerant multi-session server over a line protocol *)

open Cmdliner

module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Generator = Indq_dataset.Generator
module Realistic = Indq_dataset.Realistic
module Algo = Indq_core.Algo
module Indist = Indq_core.Indist
module Region = Indq_core.Region
module Session = Indq_core.Session
module Utility = Indq_user.Utility
module Oracle = Indq_user.Oracle
module Rng = Indq_util.Rng
module Tabulate = Indq_util.Tabulate
module Counter = Indq_obs.Counter
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace
module Histogram = Indq_obs.Histogram
module Profile = Indq_obs.Profile
module Artifact = Indq_dominance.Artifact
module Experiments = Indq_experiments.Experiments
module Report = Indq_experiments.Report
module Pool = Indq_exec.Pool
module Fault = Indq_fault.Fault
module Server = Indq_server.Server
module Engine = Indq_server.Engine
module Journal_store = Indq_server.Journal_store

(* --- shared arguments --- *)

let seed_arg =
  let doc = "Random seed (all randomness in indq is reproducible)." in
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc)

let eps_arg =
  let doc = "Indistinguishability parameter eps (> 0)." in
  Arg.(value & opt float 0.05 & info [ "eps"; "e" ] ~docv:"EPS" ~doc)

let delta_arg =
  let doc = "User error parameter delta (>= 0)." in
  Arg.(value & opt float 0. & info [ "delta" ] ~docv:"DELTA" ~doc)

let s_arg =
  let doc = "Tuples shown per question (0 = use the dimension d)." in
  Arg.(value & opt int 0 & info [ "s" ] ~docv:"S" ~doc)

let q_arg =
  let doc = "Question budget (0 = use 3d)." in
  Arg.(value & opt int 0 & info [ "q" ] ~docv:"Q" ~doc)

let algo_arg =
  let doc = "Algorithm: squeeze-u, uh-random, mind or minr." in
  let parse s =
    try Ok (Algo.of_string s) with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf a = Format.pp_print_string ppf (Algo.to_string a) in
  Arg.(
    value
    & opt (conv (parse, print)) Algo.Squeeze_u
    & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let data_arg =
  let doc =
    "Data source: a CSV path, a binary $(b,.store) path (see $(b,indq \
     ingest)), or one of island, nba, house, independent, correlated, \
     anti_correlated."
  in
  Arg.(value & opt string "independent" & info [ "data" ] ~docv:"DATA" ~doc)

let n_arg =
  let doc = "Number of tuples for generated data (0 = source default)." in
  Arg.(value & opt int 0 & info [ "n" ] ~docv:"N" ~doc)

let d_arg =
  let doc = "Dimensions for synthetic data." in
  Arg.(value & opt int 3 & info [ "d" ] ~docv:"D" ~doc)

let load_data ~source ~n ~d ~seed =
  let rng = Rng.create seed in
  match String.lowercase_ascii source with
  | "island" | "nba" | "house" ->
    let n = if n > 0 then Some n else None in
    Realistic.by_name source ?n rng
  | "independent" | "correlated" | "anti_correlated" | "anti-correlated" ->
    let n = if n > 0 then n else 10_000 in
    Generator.by_name source rng ~n ~d
  | path ->
    if Filename.check_suffix path ".store" then Dataset.load_store path
    else Dataset.load_csv path

(* The library's typed failures become one-line diagnostics and exit
   code 2 instead of a backtrace. *)
let with_typed_errors f =
  match f () with
  | status -> status
  | exception Dataset.Load_error e ->
    Printf.eprintf "indq: %s\n" (Dataset.load_error_message e);
    2
  | exception Session.Error e ->
    Printf.eprintf "indq: %s\n" (Session.error_message e);
    2

let trace_arg =
  let doc =
    "Stream trace events of the run: $(b,-) renders a live per-round table, \
     any other value is a path receiving one JSON object per line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, print work counters (run delta and process total), span \
     timings and an audit of the utility region implied by the transcript."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Build the requested trace sink and hand it to [f]; the run passes it
   explicitly to [Algo.run ?trace], which scopes it to the run's duration on
   the executing domain — no global sink state. *)
let with_trace_sink trace f =
  match trace with
  | None -> f None
  | Some "-" -> f (Some (Trace.console_sink ()))
  | Some path ->
    let oc =
      try open_out path
      with Sys_error msg ->
        Printf.eprintf "indq: cannot open trace file: %s\n" msg;
        exit 2
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> f (Some (Trace.jsonl_sink oc)))

(* Replay a recorded transcript through the region machinery: the audit both
   reports what the answers imply about the hidden utility and exercises the
   LP stack even for algorithms (Squeeze-u) that never build a region
   themselves. *)
let print_region_audit ~delta ~d rounds =
  let region = ref (Region.initial ~d) in
  List.iter
    (fun { Oracle.options; choice } ->
      let winner = options.(choice) in
      let losers = ref [] in
      Array.iteri (fun i v -> if i <> choice then losers := v :: !losers) options;
      let updated = Region.observe ~delta !region ~winner ~losers:!losers in
      if not (Region.is_empty updated) then region := updated)
    rounds;
  let r = !region in
  Format.printf
    "implied utility region: %d halfspaces, width %.4f, diameter %.4f@."
    (List.length (Indq_geom.Polytope.halfspaces (Region.polytope r)))
    (Region.width r) (Region.diameter r)

let counter_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

(* [run_metrics] are the per-run deltas from [Algo.run_result.metrics]; the
   process totals are read afterwards so they include the audit's LP work. *)
let print_counter_table run_metrics =
  let t =
    Tabulate.create ~title:"counters"
      ~columns:[ "counter"; "run"; "process total" ]
  in
  List.iter
    (fun (name, total) ->
      let run =
        match List.assoc_opt name run_metrics with Some v -> v | None -> 0.
      in
      Tabulate.add_row t [ name; counter_cell run; counter_cell total ])
    (Counter.snapshot ());
  Tabulate.print t

let print_span_table () =
  match Span.snapshot () with
  | [] -> ()
  | stats ->
    let t =
      Tabulate.create ~title:"spans"
        ~columns:[ "span"; "calls"; "total (s)"; "self (s)" ]
    in
    List.iter
      (fun (name, st) ->
        Tabulate.add_row t
          [
            name;
            string_of_int st.Span.calls;
            Printf.sprintf "%.4f" st.Span.cumulative;
            Printf.sprintf "%.4f" st.Span.self;
          ])
      stats;
    Tabulate.print t

(* [run_hists] are the per-run deltas from [Algo.run_result.hists]; count-
   unit values render like counters, seconds-unit ones in microsecond
   precision. *)
let print_hist_table run_hists =
  match run_hists with
  | [] -> ()
  | hists ->
    let t =
      Tabulate.create ~title:"histograms"
        ~columns:[ "histogram"; "count"; "mean"; "p50"; "p90"; "p99" ]
    in
    List.iter
      (fun (name, s) ->
        let fmt v =
          match s.Histogram.s_unit with
          | Histogram.Seconds -> Printf.sprintf "%.6f" v
          | Histogram.Count -> counter_cell v
        in
        Tabulate.add_row t
          [
            name;
            string_of_int s.Histogram.count;
            fmt (Histogram.mean s);
            fmt (Histogram.p50 s);
            fmt (Histogram.p90 s);
            fmt (Histogram.p99 s);
          ])
      hists;
    Tabulate.print t

let config_of ~data ~s ~q ~eps ~delta =
  let d = Dataset.dim data in
  let base = Algo.default_config ~d in
  {
    base with
    Algo.s = (if s > 0 then s else base.Algo.s);
    q = (if q > 0 then q else base.Algo.q);
    eps;
    delta;
  }

let print_tuples ?(limit = 25) data =
  let n = Dataset.size data in
  Array.iteri
    (fun i p ->
      if i < limit then Format.printf "  %a@." Tuple.pp p
      else if i = limit then Format.printf "  ... (%d more)@." (n - limit))
    (Dataset.tuples data)

(* --- generate --- *)

let generate_cmd =
  let run source n d seed output =
    with_typed_errors @@ fun () ->
    let data = load_data ~source ~n ~d ~seed in
    (match output with
    | Some path ->
      Dataset.save_csv data path;
      Printf.printf "wrote %d tuples (%d-dimensional) to %s\n" (Dataset.size data)
        (Dataset.dim data) path
    | None -> print_string (Dataset.to_csv data));
    0
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output CSV path (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a data set as CSV.")
    Term.(const run $ data_arg $ n_arg $ d_arg $ seed_arg $ output)

(* --- ingest --- *)

let ingest_cmd =
  let run source n d seed output =
    with_typed_errors @@ fun () ->
    let data = load_data ~source ~n ~d ~seed in
    Dataset.save_store data output;
    Printf.printf "wrote %d rows x %d dims to %s (fingerprint %s)\n"
      (Dataset.size data) (Dataset.dim data) output (Dataset.fingerprint data);
    0
  in
  let output =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OUT.store"
          ~doc:
            "Destination for the columnar binary store (conventionally \
             $(b,.store); $(b,--data) then opens it without re-parsing).")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Stream a data source (CSV or generator) into a columnar binary \
          .store file for O(1) reopening.")
    Term.(const run $ data_arg $ n_arg $ d_arg $ seed_arg $ output)

(* --- precompute --- *)

let precompute_cmd =
  let run source n d seed eps cache =
    with_typed_errors @@ fun () ->
    if eps <= 0. then begin
      Printf.eprintf "indq: eps must be > 0\n";
      2
    end
    else begin
      let data = load_data ~source ~n ~d ~seed in
      let pruned = Artifact.prune_eps_dominated_cached ~dir:cache ~eps data in
      let c = 1. +. eps in
      Printf.printf
        "(1+eps)-skyline of %s: %d of %d rows (eps %g)\nartifact: %s\n" source
        (Dataset.size pruned) (Dataset.size data) eps
        (Artifact.path ~dir:cache ~fingerprint:(Dataset.fingerprint data) ~c);
      0
    end
  in
  let cache =
    Arg.(
      value
      & opt string Artifact.default_dir
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Artifact cache directory (created if needed; default \
             $(b,.indq-cache)).  A later run over the same data and eps — \
             including $(b,bench -cache DIR scale) — reuses the artifact \
             instead of recomputing the skyline.")
  in
  Cmd.v
    (Cmd.info "precompute"
       ~doc:
         "Compute a data set's (1+eps)-skyline and persist it as a reusable \
          artifact keyed by (fingerprint, eps).")
    Term.(const run $ data_arg $ n_arg $ d_arg $ seed_arg $ eps_arg $ cache)

(* --- exact --- *)

let utility_arg =
  let doc = "Utility vector as comma-separated weights, e.g. 1,20." in
  Arg.(required & opt (some string) None & info [ "utility"; "u" ] ~docv:"U" ~doc)

let parse_utility s =
  String.split_on_char ',' s
  |> List.map (fun x -> float_of_string (String.trim x))
  |> Array.of_list
  |> Indq_linalg.Vec.of_array

let exact_cmd =
  let run source n d seed eps utility =
    with_typed_errors @@ fun () ->
    let data = load_data ~source ~n ~d ~seed in
    let u = parse_utility utility in
    let result = Indist.query_exact ~eps u data in
    let best, value = Dataset.max_utility data u in
    Format.printf "optimum: %a (utility %.6g)@." Tuple.pp best value;
    Format.printf "I(f, %.3g) has %d of %d tuples:@." eps (Dataset.size result)
      (Dataset.size data);
    print_tuples result;
    0
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Ground-truth indistinguishability query for a known utility.")
    Term.(const run $ data_arg $ n_arg $ d_arg $ seed_arg $ eps_arg $ utility_arg)

(* --- simulate --- *)

let simulate_run source n d seed eps delta s q algo trace metrics =
  with_typed_errors @@ fun () ->
  let data = load_data ~source ~n ~d ~seed in
  let rng = Rng.create (seed + 1) in
  let u = Utility.random rng ~d:(Dataset.dim data) in
  let base_oracle =
    if delta > 0. then Oracle.with_error ~delta ~rng:(Rng.split rng) u
    else Oracle.exact u
  in
  let oracle, transcript =
    if metrics then
      let o, rounds = Oracle.recording base_oracle in
      (o, Some rounds)
    else (base_oracle, None)
  in
  (* A file trace is profiler fodder: spans must be live so the stream
     carries span_started/span_finished causality for `indq profile`. *)
  let file_trace = match trace with Some t -> t <> "-" | None -> false in
  if metrics || file_trace then Span.enable ();
  let config = config_of ~data ~s ~q ~eps ~delta in
  let result =
    with_trace_sink trace (fun sink ->
        Algo.run ?trace:sink algo config ~data ~oracle ~rng:(Rng.split rng))
  in
  let alpha = Indist.alpha ~eps u ~data ~output:result.Algo.output in
  let truth = Indist.query_exact ~eps u data in
  Format.printf "hidden utility: %a@." Indq_linalg.Vec.pp u;
  Format.printf "%s: %d questions, %.3fs, output %d tuples (exact I has %d)@."
    (Algo.to_string algo) result.Algo.questions_used result.Algo.seconds
    (Dataset.size result.Algo.output) (Dataset.size truth);
  Format.printf "alpha = %.6f, false negatives: %b@." alpha
    (Indist.has_false_negatives ~eps u ~data ~output:result.Algo.output);
  print_tuples result.Algo.output;
  (match transcript with
  | Some rounds ->
    Format.printf "@.";
    print_region_audit ~delta ~d:(Dataset.dim data) (rounds ());
    Format.printf "@.";
    print_counter_table result.Algo.metrics;
    print_span_table ();
    print_hist_table result.Algo.hists
  | None -> ());
  if metrics || file_trace then Span.disable ();
  0

let simulate_term =
  Term.(
    const simulate_run $ data_arg $ n_arg $ d_arg $ seed_arg $ eps_arg
    $ delta_arg $ s_arg $ q_arg $ algo_arg $ trace_arg $ metrics_arg)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run an algorithm against a simulated random user.")
    simulate_term

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an algorithm against a simulated random user (alias of \
          simulate).")
    simulate_term

(* --- interactive --- *)

let interactive_cmd =
  let run source n d seed eps s q algo journal_path resume_path =
    with_typed_errors @@ fun () ->
    let data = load_data ~source ~n ~d ~seed in
    let config = config_of ~data ~s ~q ~eps ~delta:0. in
    let rng = Rng.create (seed + 2) in
    (* Read any journal to replay *before* opening the append sink: with
       --journal and --resume on the same file, the continued session just
       extends it. *)
    let replay =
      match resume_path with
      | None -> None
      | Some path ->
        let text =
          try In_channel.with_open_text path In_channel.input_all
          with Sys_error msg ->
            Printf.eprintf "indq: cannot read journal: %s\n" msg;
            exit 2
        in
        Some (Session.journal_of_string text)
    in
    let journal_oc =
      Option.map
        (fun path ->
          try open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
          with Sys_error msg ->
            Printf.eprintf "indq: cannot open journal: %s\n" msg;
            exit 2)
        journal_path
    in
    Fun.protect
      ~finally:(fun () -> Option.iter close_out journal_oc)
      (fun () ->
        (* Write-ahead: each record is on disk (flushed) before the next
           prompt, so killing the process mid-session loses at most the
           question currently on screen — never an accepted answer. *)
        let journal =
          Option.map
            (fun oc entry ->
              output_string oc (Session.journal_entry_to_json entry);
              output_char oc '\n';
              flush oc)
            journal_oc
        in
        let session =
          match replay with
          | None -> Session.start ?journal algo config ~data ~rng
          | Some entries ->
            let sess = Session.resume ?journal entries algo config ~data ~rng in
            Format.printf "Resumed session: %d answer(s) replayed.@."
              (Session.questions_asked sess);
            sess
        in
        let ask options =
          Format.printf "@.Which do you prefer?@.";
          Array.iteri
            (fun i p ->
              Format.printf "  [%d] %a@." (i + 1) Indq_linalg.Vec.pp p)
            options;
          let rec loop () =
            Format.printf "choice (1-%d): %!" (Array.length options);
            match int_of_string_opt (String.trim (input_line stdin)) with
            | Some k when k >= 1 && k <= Array.length options -> k - 1
            | _ ->
              Format.printf "please enter a number between 1 and %d@."
                (Array.length options);
              loop ()
          in
          loop ()
        in
        let rec drive () =
          match Session.current session with
          | Session.Asking options ->
            (match ask options with
            | choice ->
              Session.answer session choice;
              drive ()
            | exception End_of_file ->
              Format.printf "@.Input closed after %d answered question(s).@."
                (Session.questions_asked session);
              (match journal_path with
              | Some path ->
                Format.printf
                  "The session is journaled; continue it with --resume %s@."
                  path
              | None -> ());
              1)
          | Session.Finished result ->
            Format.printf
              "@.Done after %d questions.  These %d tuples are within %.1f%% \
               of your optimum:@."
              result.Algo.questions_used
              (Dataset.size result.Algo.output)
              (100. *. (1. -. (1. /. (1. +. eps))));
            print_tuples ~limit:50 result.Algo.output;
            0
        in
        drive ())
  in
  let journal_arg =
    let doc =
      "Write-ahead journal: append one JSON record per accepted answer to \
       $(docv), so a crashed or interrupted session can be reconstructed \
       with $(b,--resume)."
    in
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume a journaled session: replay the answers recorded in $(docv) \
       (written by $(b,--journal)) and continue from the next question.  All \
       other options must match the original invocation."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "interactive" ~doc:"Run an algorithm with you answering the questions.")
    Term.(
      const run $ data_arg $ n_arg $ d_arg $ seed_arg $ eps_arg $ s_arg $ q_arg
      $ algo_arg $ journal_arg $ resume_arg)

(* --- experiment --- *)

let experiment_cmd =
  let run name seed scale utilities max_n jobs with_metrics =
    if jobs < 1 then begin
      Printf.eprintf "indq: -j must be >= 1 (got %d)\n" jobs;
      exit 2
    end;
    let dataset_labels = [ "Island"; "NBA"; "House" ] in
    Pool.with_pool ~domains:jobs @@ fun p ->
    (* Results are bit-identical for every -j, so a size-1 pool and a real
       one print the same report. *)
    let pool = if Pool.size p > 1 then Some p else None in
    let print_sweep = Report.print_sweep ~with_metrics in
    let per_dataset f =
      List.iter
        (fun kind -> print_sweep (f kind))
        Experiments.[ Island_like; Nba_like; House_like ]
    in
    (match String.lowercase_ascii name with
    | "fig1" -> print_sweep (Experiments.fig1 ~utilities ~scale ?pool ~seed ())
    | "fig2" -> per_dataset (Experiments.fig2 ~utilities ~scale ?pool ~seed)
    | "fig3" -> per_dataset (Experiments.fig3 ~utilities ~scale ?pool ~seed)
    | "fig4" -> per_dataset (Experiments.fig4 ~utilities ~scale ?pool ~seed)
    | "fig5" -> per_dataset (Experiments.fig5 ~utilities ~scale ?pool ~seed)
    | "tab3" ->
      Report.print_time_sweep ~with_metrics ~labels:dataset_labels
        (Experiments.tab3 ~utilities ~scale ?pool ~seed ())
    | "tab4" ->
      Report.print_time_sweep ~with_metrics ~labels:dataset_labels
        (Experiments.tab4 ~utilities ~scale ?pool ~seed ())
    | "fig6" -> print_sweep (Experiments.fig6 ~utilities ~max_n ?pool ~seed ())
    | "fig7" -> print_sweep (Experiments.fig7 ~utilities ?pool ~seed ())
    | other ->
      Printf.eprintf "unknown experiment %S (fig1-fig7, tab3, tab4)\n" other;
      exit 2);
    0
  in
  let experiment_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"fig1..fig7, tab3 or tab4.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"S"
          ~doc:"Data-set size scale, > 0 (values above 1 super-size).")
  in
  let utilities =
    Arg.(
      value & opt int 10
      & info [ "utilities" ] ~docv:"K" ~doc:"Random utilities per cell.")
  in
  let max_n =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-n" ] ~docv:"N" ~doc:"Cap for the fig6 size sweep.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains running the sweep's trials.  Results are \
             bit-identical for every value; only wall-clock times change.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one of the paper's evaluation experiments.")
    Term.(
      const run $ experiment_name $ seed_arg $ scale $ utilities $ max_n $ jobs
      $ metrics_arg)

(* --- profile --- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let profile_run trace_file folded_out speedscope_out =
  with_typed_errors @@ fun () ->
  match read_lines trace_file with
  | exception Sys_error msg ->
    Printf.eprintf "indq: cannot read trace file: %s\n" msg;
    2
  | lines ->
    let prof = Profile.of_lines lines in
    if prof.Profile.roots = [] then begin
      Printf.eprintf
        "indq: no span events in %s (record one with: indq simulate --trace \
         FILE, which enables spans)\n"
        trace_file;
      2
    end
    else begin
      let t =
        Tabulate.create ~title:"phases"
          ~columns:
            [ "phase"; "calls"; "total (s)"; "self (s)"; "self %"; "what" ]
      in
      let phases =
        (* Hottest self time first; ties (and zero-width spans) by name. *)
        List.stable_sort
          (fun a b -> Float.compare b.Profile.self a.Profile.self)
          prof.Profile.phases
      in
      List.iter
        (fun (p : Profile.phase) ->
          Tabulate.add_row t
            [
              p.Profile.phase_name;
              string_of_int p.Profile.calls;
              Printf.sprintf "%.6f" p.Profile.total;
              Printf.sprintf "%.6f" p.Profile.self;
              (if prof.Profile.total > 0. then
                 Printf.sprintf "%.1f"
                   (100. *. p.Profile.self /. prof.Profile.total)
               else "-");
              (match Profile.phase_doc p.Profile.phase_name with
              | Some doc -> doc
              | None -> "-");
            ])
        phases;
      Tabulate.print t;
      let self_sum =
        List.fold_left
          (fun acc p -> acc +. p.Profile.self)
          0. prof.Profile.phases
      in
      Printf.printf
        "total traced: %.6fs; per-phase self times sum to %.6fs\n"
        prof.Profile.total self_sum;
      let folded_path =
        match folded_out with Some p -> p | None -> trace_file ^ ".folded"
      in
      let speedscope_path =
        match speedscope_out with
        | Some p -> p
        | None -> trace_file ^ ".speedscope.json"
      in
      (try
         write_file folded_path (Profile.folded prof);
         write_file speedscope_path
           (Profile.speedscope ~name:(Filename.basename trace_file) prof)
       with Sys_error msg ->
         Printf.eprintf "indq: cannot write profile output: %s\n" msg;
         exit 2);
      Printf.printf "wrote %s (flamegraph.pl folded stacks) and %s \
                     (speedscope JSON)\n"
        folded_path speedscope_path;
      0
    end

let profile_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "JSONL trace recorded with $(b,indq simulate --trace FILE) (a \
             file trace records span events automatically).")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:
            "Where to write the flamegraph.pl folded stacks (default: \
             TRACE.folded).")
  in
  let speedscope_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedscope" ] ~docv:"PATH"
          ~doc:
            "Where to write the speedscope JSON (default: \
             TRACE.speedscope.json).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Replay a JSONL trace into per-phase self-time attribution, \
          folded-stack and speedscope exports.")
    Term.(const profile_run $ trace_file $ folded_out $ speedscope_out)

(* --- serve --- *)

(* SITE=TRIGGER with TRIGGER one of once:K, every:K, after:K, always —
   one spelling per armed [Fault.trigger] constructor. *)
let parse_fault_arm text =
  let fail msg = Error (`Msg msg) in
  match String.index_opt text '=' with
  | None -> fail "expected SITE=TRIGGER (e.g. inject.journal_torn_write=once:3)"
  | Some eq -> (
    let site = String.sub text 0 eq in
    let spec =
      String.lowercase_ascii
        (String.sub text (eq + 1) (String.length text - eq - 1))
    in
    if not (List.mem site Fault.site_names) then
      fail
        (Printf.sprintf "unknown fault site %S (sites: %s)" site
           (String.concat ", " Fault.site_names))
    else
      let with_count prefix k =
        match
          int_of_string_opt
            (String.sub spec (String.length prefix)
               (String.length spec - String.length prefix))
        with
        | Some n when n >= 1 -> Ok (site, k n)
        | Some _ | None -> fail ("bad trigger count in " ^ spec)
      in
      let has p =
        String.length spec > String.length p
        && String.sub spec 0 (String.length p) = p
      in
      if spec = "always" then Ok (site, Fault.Always)
      else if has "once:" then with_count "once:" (fun n -> Fault.Once n)
      else if has "every:" then with_count "every:" (fun n -> Fault.Every n)
      else if has "after:" then with_count "after:" (fun n -> Fault.After n)
      else fail ("unknown trigger " ^ spec ^ " (once:K, every:K, after:K, always)"))

let serve_cmd =
  let socket_arg =
    let doc = "Listen on a Unix domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on TCP localhost:$(docv) (ignored when --socket is given)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let dir_arg =
    let doc = "Session journal directory (created if missing): the server's \
               only persistent state, one $(b,ID.journal) file per session." in
    Arg.(value & opt string "indq-sessions" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let max_hydrated_arg =
    let doc = "Keep at most $(docv) sessions live in memory; colder sessions \
               are evicted to their journals and rehydrated on demand." in
    Arg.(value & opt int 1024 & info [ "max-hydrated" ] ~docv:"K" ~doc)
  in
  let fsync_arg =
    let doc = "Journal durability: $(b,always), $(b,batch:K), or $(b,never)." in
    let parse s = Result.map_error (fun m -> `Msg m) (Journal_store.fsync_policy_of_string s) in
    let print ppf p =
      Format.pp_print_string ppf (Journal_store.fsync_policy_to_string p)
    in
    Arg.(
      value
      & opt (conv (parse, print)) (Journal_store.Batch 8)
      & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let idle_arg =
    let doc = "Evict sessions idle longer than $(docv) seconds (0 disables)." in
    Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let deadline_arg =
    let doc = "Per-answer compute budget in seconds; an over-budget round \
               returns a typed $(b,deadline_exceeded) error (0 disables)." in
    Arg.(value & opt float 0. & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let max_line_arg =
    let doc = "Reject request lines longer than $(docv) bytes." in
    Arg.(value & opt int Server.default_max_line & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let max_n_arg =
    let doc = "Largest dataset size a hello may request." in
    Arg.(value & opt int 200_000 & info [ "max-n" ] ~docv:"N" ~doc)
  in
  let max_d_arg =
    let doc = "Largest dimension a hello may request." in
    Arg.(value & opt int 16 & info [ "max-d" ] ~docv:"D" ~doc)
  in
  let fault_arg =
    let doc =
      "Arm a deterministic fault for the whole run (repeatable): \
       $(b,SITE=once:K|every:K|after:K|always), e.g. \
       $(b,inject.journal_torn_write=once:3)."
    in
    let parse s = parse_fault_arm s in
    let print ppf (site, _) = Format.pp_print_string ppf site in
    Arg.(value & opt_all (conv (parse, print)) [] & info [ "fault" ] ~docv:"ARM" ~doc)
  in
  let allow_shutdown_arg =
    let doc = "Honor the $(b,shutdown) op (off by default: clients get a \
               typed $(b,forbidden) error)." in
    Arg.(value & flag & info [ "allow-shutdown" ] ~doc)
  in
  let run socket port dir max_hydrated fsync idle deadline max_line max_n max_d
      arms allow_shutdown =
    let transport =
      match (socket, port) with
      | Some path, _ -> Server.Unix_path path
      | None, Some p -> Server.Tcp p
      | None, None ->
        Printf.eprintf "indq: serve needs --socket PATH or --port PORT\n";
        exit 2
    in
    if max_hydrated < 1 then begin
      Printf.eprintf "indq: --max-hydrated must be >= 1\n";
      exit 2
    end;
    let config =
      {
        (Engine.default_config ~dir) with
        Engine.fsync;
        max_hydrated;
        idle_timeout = idle;
        deadline;
        max_n;
        max_d;
        allow_shutdown;
      }
    in
    let plan = match arms with [] -> None | arms -> Some (Fault.plan arms) in
    Server.run ?plan ~max_line config transport;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve interactive sessions over a line-delimited JSON protocol, \
          one crash-recoverable journal per session.")
    Term.(
      const run $ socket_arg $ port_arg $ dir_arg $ max_hydrated_arg
      $ fsync_arg $ idle_arg $ deadline_arg $ max_line_arg $ max_n_arg
      $ max_d_arg $ fault_arg $ allow_shutdown_arg)

let main_cmd =
  let doc = "interactive indistinguishability queries (ICDE 2024 reproduction)" in
  Cmd.group (Cmd.info "indq" ~version:"1.0.0" ~doc)
    [
      generate_cmd;
      ingest_cmd;
      precompute_cmd;
      exact_cmd;
      simulate_cmd;
      run_cmd;
      interactive_cmd;
      experiment_cmd;
      profile_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
