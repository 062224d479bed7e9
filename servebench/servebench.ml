(* servebench: the served-interview benchmark.

     servebench.exe --indq PATH --workload NAME --seed N --seconds S --trace 0|1

   Launches [indq serve] (the binary at PATH) on a fresh Unix socket and
   journal directory, drives one workload for S seconds from closed-loop
   connections, checks every finished session's output, guards the
   workload's shape with the server's own counters, and prints the
   end-to-end metrics ([--trace 0]) or the per-layer metrics of an
   in-process traced replay ([--trace 1]).  The line before the result
   records the run's context.  Exits 1 when any check or guard fails. *)

open Report

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let indq = ref ""
let commit = ref "unknown"
let cpus = ref 0
let pinned = ref "none"
let smoke = ref false

(* Per-read client timeout, seconds: a silent server fails the run. *)
let timeout = 30.

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
    ("--seed", Arg.Set_int seed, "N workload seed (users and catalogues)");
    ("--seconds", Arg.Set_float seconds, "S measured seconds of load");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--indq", Arg.Set_string indq, "PATH the indq binary to serve with");
    ("--commit", Arg.Set_string commit, "SHA recorded in the run context");
    ("--cpus", Arg.Set_int cpus, "N online CPUs, recorded in the run context");
    ("--pinned", Arg.Set_string pinned, "CPUS the run is pinned to, recorded in the run context");
    ("--smoke", Arg.Set smoke, " seconds-scale sizes (the benchmark's own test)");
  ]

let usage = "servebench.exe --indq PATH --workload NAME --seed N --seconds S --trace 0|1"

let setup_reps = 11

(* Unmeasured seconds of load before the measured [--seconds]. *)
let warmup () = Float.min 3. (!seconds /. 8.)

(* Input generation: the hellos, hidden utilities and catalogues of the
   first sessions of every connection.  The catalogues, keyed by hello
   seed, are the ground truth the output checks start from. *)
let plan (w : Workload.t) =
  let catalogues = Hashtbl.create 64 in
  for conn = 0 to Workload.conns - 1 do
    for k = 0 to 31 do
      let s = Workload.new_session w ~conn ~slot:(k mod w.Workload.slots) ~k in
      let h = s.Workload.hello in
      if not (Hashtbl.mem catalogues h.Wire.seed) then
        Hashtbl.replace catalogues h.Wire.seed (Workload.catalogue h)
    done
  done;
  catalogues

(* Set up [setup_reps] times — input generation plus server launch until
   it answers — and keep the last server and catalogues. *)
let set_up w =
  let rec go i acc =
    let catalogues, gen = Clock.time (fun () -> plan w) in
    let server, launch = Serverproc.launch ~indq:!indq ~timeout:timeout w in
    let acc = (gen +. launch) :: acc in
    if i = setup_reps then (server, catalogues, acc)
    else begin
      Serverproc.stop server.Serverproc.pid;
      go (i + 1) acc
    end
  in
  go 1 []

let rpc_response link line =
  match Wire.parse_response (Serverproc.rpc link ~timeout:timeout line) with
  | Ok r -> r
  | Error msg -> failwith ("undecodable reply: " ^ msg)

(* Socket [ask] round trips on a session still hydrated in the server. *)
let resident_asks link id =
  let ask () = rpc_response link (Wire.request_to_line (Wire.Ask { id })) in
  let valid = function Wire.R_ask _ | Wire.R_done _ -> true | _ -> false in
  if not (valid (ask ())) then failwith "ask on a resident session failed";
  List.init 200 (fun _ ->
      let r, dt = Clock.time ask in
      if not (valid r) then failwith "ask on a resident session failed";
      dt)

let run (w : Workload.t) =
  let traced = !trace = 1 in
  let server, catalogues, setups = set_up w in
  let steal0, total0 = Serverproc.cpu_ticks () in
  let sock =
    Drive.socket w ~sock:server.Serverproc.sock ~warmup:(warmup ()) ~seconds:!seconds
      ~timeout:timeout
  in
  let steal1, total1 = Serverproc.cpu_ticks () in
  let steal_share = ratio (steal1 -. steal0) (total1 -. total0) in
  let link = Serverproc.connect server.Serverproc.sock in
  let ask_rtts =
    match sock.Drive.resident with
    | Some id when traced -> resident_asks link id
    | Some _ | None -> []
  in
  let counters =
    match rpc_response link (Wire.request_to_line Wire.Stats) with
    | Wire.R_stats { counters; _ } -> counters
    | _ -> failwith "stats request failed"
  in
  Serverproc.close link;
  let rss = Serverproc.peak_rss_mb server in
  Serverproc.stop server.Serverproc.pid;
  let checks = Checks.outputs w ~catalogues sock.Drive.log in
  let answered = List.length sock.Drive.rounds in
  let guards =
    Checks.guards w ~counters ~answered:sock.Drive.answered
      ~created:(List.length sock.Drive.log.Workload.created)
      ~finished:checks.Checks.checked
  in
  let failures = sock.Drive.failures @ List.rev checks.Checks.wrong in
  let failed = List.length failures in
  let attempted = max 1 sock.Drive.attempted in
  let correct = failed = 0 && guards = [] in
  let alpha_mean = mean checks.Checks.alphas in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let metrics, layer_samples =
    if traced then begin
      let l = Layers.run w sock ~budget:(Float.max 0.25 (!seconds /. 4.)) ~ask_rtts in
      ( l.Layers.metrics
        @ [
            metric "alpha_mean" "utility" alpha_mean;
            metric "failed_frac" "ratio" failed_frac;
          ],
        l.Layers.samples )
    end
    else
      ( [
          metric "round_p50_ms" "ms" (quantile 0.5 (ms sock.Drive.rounds));
          metric "round_p90_ms" "ms" (quantile 0.9 (ms sock.Drive.rounds));
          metric "start_p50_ms" "ms" (quantile 0.5 (ms sock.Drive.starts));
          metric "rounds_per_s" "1/s" (ratio (float_of_int answered) sock.Drive.wall);
          metric "setup_s" "s" (median setups);
          metric "server_peak_rss_mb" "MiB" rss;
        ],
        [] )
  in
  let samples =
    [
      ("rounds", answered);
      ("answered_with_warmup", sock.Drive.answered);
      ("starts", List.length sock.Drive.starts);
      ("asks", List.length sock.Drive.asks);
      ("setups", List.length setups);
      ("finished_checked", checks.Checks.checked);
      ("alpha_sessions", List.length checks.Checks.alphas);
    ]
    @ layer_samples
  in
  let strings xs = Wire.List (List.map (fun x -> Wire.Str x) xs) in
  let context =
    Wire.Obj
      [
        ( "context",
          Wire.Obj
            [
              ("workload", Wire.Str w.Workload.name);
              ("seed", int w.Workload.seed);
              ("seconds", num !seconds);
              ("warmup_seconds", num (warmup ()));
              ("trace", int !trace);
              ("smoke", Wire.Bool !smoke);
              ("commit", Wire.Str !commit);
              ("nproc", int (if !cpus > 0 then !cpus else Domain.recommended_domain_count ()));
              ("pinned", Wire.Str !pinned);
              ("steal_share", num steal_share);
              ("params", Workload.describe w);
              ("alpha_mean", num alpha_mean);
              ("failed_frac", num failed_frac);
              ("samples", Wire.Obj (List.map (fun (k, v) -> (k, int v)) samples));
              ("guard_failures", strings guards);
              ("failures", strings (List.filteri (fun i _ -> i < 10) failures));
            ] );
      ]
  in
  List.iter prerr_endline (guards @ failures);
  print_endline (Wire.print_json context);
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("servebench: " ^ msg);
    exit 2
  in
  if !indq = "" || not (Sys.file_exists !indq) then fail "--indq must name the built indq binary";
  if !seconds <= 0. then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  match Workload.make ~smoke:!smoke ~seed:!seed !workload with
  | None -> fail ("unknown workload " ^ !workload ^ " (" ^ String.concat ", " Workload.names ^ ")")
  | Some w -> (
    match run w with
    | code -> exit code
    | exception e ->
      prerr_endline ("servebench: " ^ Printexc.to_string e);
      exit 1)
