(* The traced run: per-layer numbers for one workload.

   It replays the socket run's request stream in-process through
   [Engine.handle] twice — spans off, then spans on (the difference is the
   tracing overhead) — and times public calls of each layer from the
   benchmark side: the wire codec, [Journal_store], journal-less
   [Session]s fed the same answers, the dataset generator and the
   epsilon-skyline.  Everything else is read from the counters and span
   histograms the program already records. *)

module Wire = Indq_server.Wire
module Engine = Indq_server.Engine
module Journal_store = Indq_server.Journal_store
module Session = Indq_core.Session
module Algo = Indq_core.Algo
module Skyline = Indq_dominance.Skyline
module Dataset = Indq_dataset.Dataset
module Counter = Indq_obs.Counter
module Span = Indq_obs.Span

open Report

let engine_config (w : Workload.t) dir =
  let fsync =
    match Journal_store.fsync_policy_of_string w.Workload.fsync with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  {
    (Engine.default_config ~dir) with
    Engine.fsync;
    max_hydrated = w.Workload.max_hydrated;
  }

let replay ?budget w ~limit =
  let dir = Serverproc.fresh_dir () in
  let engine = Engine.create (engine_config w dir) in
  let before = Counter.snapshot () in
  let sent, log, calls = Drive.inproc ?budget w engine ~limit in
  let counters = Counter.since before in
  Engine.shutdown engine;
  (sent, dir, log, calls, counters)

(* Apply [f] to successive items until [budget] seconds have passed (at
   least one item); returns how many were processed. *)
let within ~budget items f =
  let stop = Clock.now () +. budget in
  let rec go k = function
    | x :: rest when k = 0 || Clock.now () < stop ->
      f x;
      go (k + 1) rest
    | _ -> k
  in
  go 0 items

(* Per-call seconds of [f] on [x], amortised over [reps] calls. *)
let per_call ~reps f x =
  let (), dt =
    Clock.time (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f x))
        done)
  in
  dt /. float_of_int reps

(* At most [k] evenly spaced elements of [xs]. *)
let spread k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs else List.init k (fun i -> a.(i * n / k))

let is_error = function Wire.R_error _ -> true | _ -> false

type result = { metrics : metric list; samples : (string * int) list }

let run (w : Workload.t) (sock : Drive.socket_run) ~budget ~ask_rtts =
  (* Engine: the socket run's stream in-process (as much of it as fits
     in [2 * budget] seconds), spans off, then the same prefix spans on. *)
  Span.disable ();
  let limit, dir, log, calls, counters =
    replay ~budget:(2. *. budget) w ~limit:sock.Drive.sent
  in
  Span.reset ();
  Span.enable ();
  let _, _, _, calls_on, _ = replay w ~limit in
  Span.disable ();
  let spans = Span.snapshot () in
  let ok_calls op =
    List.filter (fun (c : Drive.call) -> c.Drive.op = op && not (is_error c.Drive.resp)) calls
  in
  let dts cs = List.map (fun (c : Drive.call) -> c.Drive.dt) cs in
  let answers = dts (ok_calls Workload.Answer) in
  let hellos = dts (ok_calls Workload.Hello) in
  let hydrating = dts (List.filter (fun (c : Drive.call) -> c.Drive.hydrated) calls) in
  let rounds = float_of_int (List.length answers) in
  let count name = Option.value ~default:0. (List.assoc_opt name counters) in
  let per_round name = ratio (count name) rounds in
  let span_ms name =
    match List.assoc_opt name spans with
    | Some st -> st.Span.cumulative *. 1e3
    | None -> 0.
  in
  let total cs = sum (dts cs) in
  (* Sessions in creation order feed the isolated layer timings. *)
  let sessions = List.rev log.Workload.created in
  (* Session: journal-less sessions fed the same answers. *)
  let session_answers = ref [] in
  let n_session =
    within ~budget sessions (fun (s : Workload.session) ->
        let h = s.Workload.hello in
        let live =
          Session.start h.Wire.algo (Workload.config_of h)
            ~data:(Workload.catalogue h) ~rng:(Workload.session_rng h)
        in
        List.iter
          (fun (_, choice) ->
            let (), dt = Clock.time (fun () -> Session.answer live choice) in
            session_answers := dt :: !session_answers)
          (List.rev s.Workload.choices))
  in
  (* Journal_store: load each replayed journal, then resume from it. *)
  let loads = ref [] and resumes = ref [] and journals = ref [] in
  let n_resume =
    within ~budget sessions (fun (s : Workload.session) ->
        let h = s.Workload.hello in
        match Clock.time (fun () -> Journal_store.load ~dir s.Workload.id) with
        | Ok loaded, dt ->
          loads := dt :: !loads;
          journals := (h, loaded.Journal_store.entries) :: !journals;
          let data = Workload.catalogue h in
          let _, dt =
            Clock.time (fun () ->
                Session.resume loaded.Journal_store.entries h.Wire.algo
                  (Workload.config_of h) ~data ~rng:(Workload.session_rng h))
          in
          resumes := dt :: !resumes
        | Error _, _ -> failwith ("traced run: journal of " ^ s.Workload.id ^ " did not load"))
  in
  (* Journal_store: append the same records under the workload's policy. *)
  let appends = ref [] in
  let append_dir = Serverproc.fresh_dir () in
  let policy = (engine_config w append_dir).Engine.fsync in
  let n_append =
    within ~budget (List.rev !journals) (fun ((h : Wire.hello), entries) ->
        let sink = Journal_store.create ~dir:append_dir ~fsync:policy h in
        List.iter
          (fun e ->
            let (), dt = Clock.time (fun () -> Journal_store.append sink e) in
            appends := dt :: !appends)
          entries;
        Journal_store.close sink)
  in
  (* Dataset / Skyline: regenerate each hello's catalogue and prune it. *)
  let generates = ref [] and prunes = ref [] and keeps = ref [] in
  let sky_before = Counter.snapshot () in
  let n_prune =
    within ~budget sessions (fun (s : Workload.session) ->
        let h = s.Workload.hello in
        let data, dt = Clock.time (fun () -> Workload.catalogue h) in
        generates := dt :: !generates;
        let eps = (Workload.config_of h).Algo.eps in
        let kept, dt = Clock.time (fun () -> Skyline.prune_eps_dominated ~eps data) in
        prunes := dt :: !prunes;
        keeps := ratio (float_of_int (Dataset.size kept)) (float_of_int (Dataset.size data)) :: !keeps)
  in
  let sky = Counter.since sky_before in
  let sky_count name = Option.value ~default:0. (List.assoc_opt name sky) in
  (* Wire: the codec on the replayed lines, amortised over repeats. *)
  let req_lines = spread 2000 (List.map (fun (c : Drive.call) -> Wire.request_to_line c.Drive.req) calls) in
  let resps = spread 2000 (List.map (fun (c : Drive.call) -> c.Drive.resp) calls) in
  let decode = List.map (per_call ~reps:20 Wire.parse_request) req_lines in
  let encode = List.map (per_call ~reps:20 Wire.response_to_line) resps in
  let reply_bytes =
    List.map (fun (c : Drive.call) -> float_of_int (String.length (Wire.response_to_line c.Drive.resp))) calls
  in
  let socket_p50 = quantile 0.5 (ms sock.Drive.rounds)
  and socket_p90 = quantile 0.9 (ms sock.Drive.rounds) in
  let answer_p50 = quantile 0.5 (ms answers) and answer_p90 = quantile 0.9 (ms answers) in
  let hits =
    count "prune.scalar_hits" +. count "prune.corner_hits"
    +. count "prune.witness_hits" +. count "prune.store_hits"
  in
  let prunes_n = float_of_int n_prune in
  let metrics =
    [
      metric "wire.decode_us_p50" "us" (median decode *. 1e6);
      metric "wire.encode_us_p50" "us" (median encode *. 1e6);
      metric "wire.reply_bytes_mean" "bytes" (mean reply_bytes);
      metric "server.ask_rtt_p50_ms" "ms" (median (ms ask_rtts));
      metric "server.transport_share" "ratio" (ratio (socket_p50 -. answer_p50) socket_p50);
      metric "server.hol_wait_p90_ms" "ms" (socket_p90 -. answer_p90);
      metric "engine.answer_ms_p50" "ms" answer_p50;
      metric "engine.answer_ms_p90" "ms" answer_p90;
      metric "engine.hello_ms_p50" "ms" (median (ms hellos));
      metric "engine.hydrate_ms_p50" "ms" (median (ms hydrating));
      metric "engine.hydrations_per_round" "count" (per_round "serve.hydrations");
      metric "engine.evictions" "count" (count "serve.evictions");
      metric "engine.unattributed_share" "ratio"
        (ratio (mean answers -. mean !session_answers -. mean !appends) (mean answers));
      metric "journal_store.append_us_p50" "us" (median !appends *. 1e6);
      metric "journal_store.syncs_per_round" "count" (per_round "serve.journal_syncs");
      metric "journal_store.load_ms_p50" "ms" (median (ms !loads));
      metric "session.answer_ms_p50" "ms" (quantile 0.5 (ms !session_answers));
      metric "session.answer_ms_p90" "ms" (quantile 0.9 (ms !session_answers));
      metric "session.resume_ms_p50" "ms" (median (ms !resumes));
      metric "session.replayed_per_hydration" "count"
        (ratio (count "journal.replayed") (count "serve.hydrations"));
      metric "dataset.generate_ms_p50" "ms" (median (ms !generates));
      metric "skyline.prune_ms_p50" "ms" (median (ms !prunes));
      metric "skyline.keep_ratio" "ratio" (mean !keeps);
      metric "rtree.nodes_visited_per_prune" "count" (ratio (sky_count "rtree.nodes_visited") prunes_n);
      metric "skyline.path_sweep" "count" (sky_count "skyline.path_sweep");
      metric "skyline.path_sfs" "count" (sky_count "skyline.path_sfs");
      metric "skyline.path_rtree" "count" (sky_count "skyline.path_rtree");
      metric "skyline.path_store" "count" (sky_count "skyline.path_store");
      metric "real_points.pick_display_ms_sum" "ms" (span_ms "real_points.pick_display");
      metric "real_points.lemma2_prune_ms_sum" "ms" (span_ms "real_points.lemma2_prune");
      metric "real_points.observe_ms_sum" "ms" (span_ms "real_points.observe");
      metric "squeeze_u.ladder_ms_sum" "ms" (span_ms "squeeze_u.ladder");
      metric "prune.lp_calls_per_round" "count" (per_round "prune.lp_calls");
      metric "prune.lp_free_ratio" "ratio" (ratio hits (hits +. count "prune.lp_calls"));
      metric "poly.cache_hits_per_round" "count" (per_round "poly.cache_hits");
      metric "lp.dual_pivots_per_round" "count" (per_round "lp.dual_pivots");
      metric "lp.dual_reopt_per_round" "count" (per_round "lp.dual_reopt");
      metric "lp.fallback_solves" "count" (count "lp.solves");
      metric "lp.failures" "count" (count "lp.failures");
      metric "region.collapses" "count" (count "region.collapses");
      metric "prune.degraded" "count" (count "prune.degraded");
      metric "trace.overhead_share" "ratio" (ratio (total calls_on -. total calls) (total calls));
    ]
  in
  let samples =
    [
      ("replayed_requests", List.length calls);
      ("engine.answers", List.length answers);
      ("engine.hellos", List.length hellos);
      ("engine.hydrating_calls", List.length hydrating);
      ("server.asks", List.length ask_rtts);
      ("session.sessions", n_session);
      ("session.answers", List.length !session_answers);
      ("journal_store.loads", n_resume);
      ("journal_store.append_sessions", n_append);
      ("journal_store.appends", List.length !appends);
      ("skyline.prunes", n_prune);
      ("wire.decoded_lines", List.length decode);
      ("wire.encoded_lines", List.length encode);
    ]
  in
  { metrics; samples }
