(* The session server: wire codec totality, typed error surface, LRU
   eviction transparency, deadline/idle degradation, and the
   kill-and-restart drill against the real [indq serve] binary — plain,
   with the torn-write plan armed, and with the sync-failure plan armed.
   Byte-identity of the final [done] lines against an uninterrupted
   in-process reference is the acceptance bar throughout. *)

module Algo = Indq_core.Algo
module Session = Indq_core.Session
module Counter = Indq_obs.Counter
module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Store = Indq_dataset.Store
module Tuple = Indq_dataset.Tuple
module Skyline = Indq_dominance.Skyline
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec
module Wire = Indq_server.Wire
module Journal_store = Indq_server.Journal_store
module Engine = Indq_server.Engine
module Catalogue = Indq_server.Catalogue
module Server = Indq_server.Server
module Sclient = Indq_server.Client

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let mk_hello ?(algo = Algo.Squeeze_u) ?(data = "independent") ?(n = 60)
    ?(d = 2) ?(seed = 11) ?(s = 0) ?(q = 0) ?(eps = 0.) ?(delta = 0.) id =
  { Wire.id; algo; data; n; d; seed; s; q; eps; delta }

let mk_engine ?(fsync = Journal_store.Never) ?(max_hydrated = 1024)
    ?(idle_timeout = 0.) ?(deadline = 0.) ?(allow_shutdown = false) ?max_n
    ?clock dir =
  let base = Engine.default_config ~dir in
  Engine.create
    {
      base with
      Engine.fsync;
      max_hydrated;
      max_n = Option.value max_n ~default:base.Engine.max_n;
      idle_timeout;
      deadline;
      allow_shutdown;
      clock = (match clock with Some c -> c | None -> base.Engine.clock);
    }

let reply = function
  | Engine.Reply r -> r
  | Engine.Disconnect -> Alcotest.fail "unexpected Disconnect outcome"
  | Engine.Stop _ -> Alcotest.fail "unexpected Stop outcome"

let check_error what expected outcome =
  match reply outcome with
  | Wire.R_error { code; _ } ->
    Alcotest.(check string) what
      (Wire.code_string expected)
      (Wire.code_string code)
  | r ->
    Alcotest.fail
      (Printf.sprintf "%s: expected %s error, got %s" what
         (Wire.code_string expected)
         (Wire.response_to_line r))

(* The one deterministic answer policy shared by every run in this file:
   a pure function of (session index, round), so an interrupted run and
   its uninterrupted reference make identical choices at every round. *)
let choice_for i round options = (round + (3 * i)) mod Array.length options

(* Drive one session through a bare engine to completion; the final
   [done] line's exact bytes are the reference artifact. *)
let engine_finish engine i first =
  let rec loop = function
    | Wire.R_done _ as r -> Wire.response_to_line r
    | Wire.R_ask { id; round; options } ->
      loop
        (reply
           (Engine.handle engine
              (Wire.Answer { id; round; choice = choice_for i round options })))
    | r -> Alcotest.fail ("engine session: " ^ Wire.response_to_line r)
  in
  loop first

(* Hello every session, then answer one round per unfinished session per
   pass until every run is done; [after_pass] runs after each pass.  With a
   small LRU every pass churns the sessions through its slots.  Returns
   the final [done] lines in hello order. *)
let round_robin ?(after_pass = ignore) engine hellos =
  let finals = Array.make (List.length hellos) "" in
  List.iteri
    (fun i h ->
      match reply (Engine.handle engine (Wire.Hello h)) with
      | Wire.R_done _ as r -> finals.(i) <- Wire.response_to_line r
      | Wire.R_ask _ -> ()
      | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r))
    hellos;
  let progress = ref true in
  while !progress do
    progress := false;
    List.iteri
      (fun i h ->
        if finals.(i) = "" then begin
          progress := true;
          match reply (Engine.handle engine (Wire.Ask { id = h.Wire.id })) with
          | Wire.R_done _ as r -> finals.(i) <- Wire.response_to_line r
          | Wire.R_ask { id; round; options } -> (
            match
              reply
                (Engine.handle engine
                   (Wire.Answer
                      { id; round; choice = choice_for i round options }))
            with
            | Wire.R_done _ as r -> finals.(i) <- Wire.response_to_line r
            | Wire.R_ask _ -> ()
            | r -> Alcotest.fail ("answer: " ^ Wire.response_to_line r))
          | r -> Alcotest.fail ("ask: " ^ Wire.response_to_line r)
        end)
      hellos;
    after_pass ()
  done;
  Array.to_list finals

let reference_lines hellos =
  let dir = temp_dir "indq-serve-ref" in
  let engine = mk_engine dir in
  let lines =
    List.mapi
      (fun i h -> engine_finish engine i (reply (Engine.handle engine (Wire.Hello h))))
      hellos
  in
  Engine.shutdown engine;
  lines

(* --- Wire codec --------------------------------------------------------- *)

let test_wire_roundtrip () =
  let requests =
    [
      Wire.Hello (mk_hello ~s:3 ~q:9 ~eps:0.1 ~delta:0.05 "alpha");
      Wire.Resume { id = "a-b.c_9" };
      Wire.Ask { id = "x" };
      Wire.Answer { id = "x"; round = 4; choice = 2 };
      Wire.Bye { id = "x" };
      Wire.Stats;
      Wire.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let line = Wire.request_to_line req in
      match Wire.parse_request line with
      | Ok req' ->
        Alcotest.(check string) "request round-trip" line (Wire.request_to_line req')
      | Error (_, msg) -> Alcotest.fail ("request did not re-parse: " ^ msg))
    requests;
  let responses =
    [
      Wire.R_ask
        { id = "x"; round = 2; options = [| [| 0.25; 1. |]; [| 0.1; 0.5 |] |] };
      Wire.R_done
        { id = "x"; questions = 6; output = [ (3, [| 0.5; 0.125 |]); (9, [| 1.; 0. |]) ] };
      Wire.R_ok { id = Some "x" };
      Wire.R_ok { id = None };
      Wire.R_stats
        {
          counters = [ ("serve.requests", 12.) ];
          round_latency = { Wire.p_count = 3; p50 = 0.001; p90 = 0.002; p99 = 0.01 };
        };
      Wire.R_error { id = None; code = Wire.Torn_write; message = "torn" };
    ]
  in
  List.iter
    (fun resp ->
      let line = Wire.response_to_line resp in
      match Wire.parse_response line with
      | Ok resp' ->
        Alcotest.(check string) "response round-trip" line
          (Wire.response_to_line resp')
      | Error msg -> Alcotest.fail ("response did not re-parse: " ^ msg))
    responses

(* Numbers render exactly as [Printf.sprintf "%.17g"] and parse back to
   the same bits: journals and [done] lines written by earlier builds stay
   byte-comparable. *)
let test_wire_float_tokens () =
  let st = Random.State.make [| 18 |] in
  let random_bits () =
    let x = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
    if Random.State.bool st then x else -.x
  in
  let fixed =
    [ 0.; -0.; 1.; -1.; 0.1; 1e21; 1e22; 5e-324; 2.2250738585072014e-308;
      Float.max_float; 123456789012345678.; 0.05; 1. /. 3. ]
  in
  let xs =
    fixed
    @ List.init 20_000 (fun i ->
          if i mod 2 = 0 then Random.State.float st 1. else random_bits ())
    |> List.filter Float.is_finite
  in
  let line = Wire.print_json (Wire.List (List.map (fun x -> Wire.Num x) xs)) in
  let expected =
    "[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") xs) ^ "]"
  in
  Alcotest.(check bool) "tokens equal %.17g" true (String.equal line expected);
  match Wire.parse_json line with
  | Ok (Wire.List nums) ->
    let same =
      List.for_all2
        (fun x v ->
          match v with
          | Wire.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          | _ -> false)
        xs nums
    in
    Alcotest.(check bool) "bit-exact round-trip" true same
  | Ok _ | Error _ -> Alcotest.fail "number list did not re-parse"

let test_wire_parse_errors () =
  let code line =
    match Wire.parse_request line with
    | Ok _ -> "ok"
    | Error (c, _) -> Wire.code_string c
  in
  Alcotest.(check string) "not json" "bad_json" (code "]junk[");
  Alcotest.(check string) "not an object" "bad_json" (code "[1,2]");
  Alcotest.(check string) "trailing bytes" "bad_json" (code "{\"op\":\"stats\"} x");
  Alcotest.(check string) "unknown op" "unknown_op" (code "{\"op\":\"zap\"}");
  Alcotest.(check string) "missing op" "bad_field" (code "{}");
  Alcotest.(check string) "missing id" "bad_field" (code "{\"op\":\"ask\"}");
  Alcotest.(check string) "path-escaping id" "bad_field"
    (code "{\"op\":\"ask\",\"id\":\"../evil\"}");
  Alcotest.(check string) "missing choice" "bad_field"
    (code "{\"op\":\"answer\",\"id\":\"a\",\"round\":1}");
  Alcotest.(check string) "ill-typed round" "bad_field"
    (code "{\"op\":\"answer\",\"id\":\"a\",\"round\":\"one\",\"choice\":0}");
  (* Abusive nesting must come back as a typed parse error, not a stack
     overflow. *)
  let deep = String.concat "" (List.init 80 (fun _ -> "[")) in
  (match Wire.parse_json deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deep nesting accepted");
  Alcotest.(check bool) "valid id" true (Wire.valid_id "ok-1._X");
  Alcotest.(check bool) "empty id" false (Wire.valid_id "");
  Alcotest.(check bool) "slash id" false (Wire.valid_id "a/b");
  Alcotest.(check bool) "oversized id" false (Wire.valid_id (String.make 65 'a'))

let test_fsync_policy_parse () =
  (match Journal_store.fsync_policy_of_string "batch:4" with
  | Ok (Journal_store.Batch 4) -> ()
  | _ -> Alcotest.fail "batch:4 did not parse");
  (match Journal_store.fsync_policy_of_string "batch:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch:0 accepted");
  (match Journal_store.fsync_policy_of_string "sometimes" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown policy accepted");
  Alcotest.(check string) "round trip" "batch:4"
    (Journal_store.fsync_policy_to_string (Journal_store.Batch 4))

(* --- Typed wire errors out of the engine -------------------------------- *)

let test_engine_protocol_errors () =
  let dir = temp_dir "indq-serve-proto" in
  let engine = mk_engine dir in
  check_error "bad json line" Wire.Bad_json (Engine.handle_line engine "@@@");
  check_error "unknown op line" Wire.Unknown_op
    (Engine.handle_line engine "{\"op\":\"frobnicate\"}");
  check_error "unknown session" Wire.Unknown_session
    (Engine.handle engine (Wire.Ask { id = "ghost" }));
  check_error "resume of unknown session" Wire.Unknown_session
    (Engine.handle engine (Wire.Resume { id = "ghost" }));
  check_error "bye of unknown session" Wire.Unknown_session
    (Engine.handle engine (Wire.Bye { id = "ghost" }));
  check_error "shutdown forbidden" Wire.Forbidden (Engine.handle engine Wire.Shutdown);
  check_error "oversized dataset" Wire.Bad_field
    (Engine.handle engine (Wire.Hello (mk_hello ~n:10_000_000 "big")));
  check_error "unknown generator" Wire.Bad_field
    (Engine.handle engine (Wire.Hello (mk_hello ~data:"/etc/passwd" "file")));
  (match reply (Engine.handle engine (Wire.Hello (mk_hello "a")))
   with
  | Wire.R_ask { round = 1; _ } -> ()
  | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r));
  check_error "duplicate hello" Wire.Session_exists
    (Engine.handle engine (Wire.Hello (mk_hello "a")));
  check_error "stale round" Wire.Round_mismatch
    (Engine.handle engine (Wire.Answer { id = "a"; round = 7; choice = 0 }));
  Engine.shutdown engine

(* All four [Session.Error] cases must surface as their wire codes. *)
let test_session_error_mapping () =
  let dir = temp_dir "indq-serve-sess" in
  let engine = mk_engine ~fsync:Journal_store.Always dir in
  (* Choice_out_of_range: an index past the pending options. *)
  (match reply (Engine.handle engine (Wire.Hello (mk_hello "a"))) with
  | Wire.R_ask _ -> ()
  | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r));
  check_error "choice out of range" Wire.Choice_out_of_range
    (Engine.handle engine (Wire.Answer { id = "a"; round = 1; choice = 99 }));
  (* Already_finished: answering after the run returned. *)
  let final =
    engine_finish engine 0 (reply (Engine.handle engine (Wire.Ask { id = "a" })))
  in
  Alcotest.(check bool) "finished" true
    (String.length final > 0);
  check_error "answer after done" Wire.Already_finished
    (Engine.handle engine (Wire.Answer { id = "a"; round = 99; choice = 0 }));
  (* Journal_mismatch: a record after the run finished contradicts the
     replay.  Tamper the finished journal on disk, then force a
     rehydration. *)
  let _ = reply (Engine.handle engine (Wire.Bye { id = "a" })) in
  let file = Journal_store.path ~dir "a" in
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "{\"type\":\"answered\",\"round\":99,\"options\":2,\"choice\":0}\n";
  close_out oc;
  check_error "record past the end" Wire.Journal_mismatch
    (Engine.handle engine (Wire.Ask { id = "a" }));
  (* Journal_corrupt: an unparseable record in the middle of the file.
     (A bad *final* line is torn-tail recovery's business; mid-file rot
     must be refused loudly.) *)
  let corrupt = Journal_store.path ~dir "rotten" in
  let oc = open_out corrupt in
  output_string oc
    (Wire.request_to_line (Wire.Hello (mk_hello "rotten"))
    ^ "\n{\"type\":\"no_such_record\"}\n{\"type\":\"no_such_record\"}\n");
  close_out oc;
  check_error "garbage journal line" Wire.Journal_corrupt
    (Engine.handle engine (Wire.Resume { id = "rotten" }));
  (* A corrupt header is also a journal_corrupt, not a crash. *)
  let headerless = Journal_store.path ~dir "headerless" in
  let oc = open_out headerless in
  output_string oc "{\"op\":\"stats\"}\n";
  close_out oc;
  check_error "non-hello header" Wire.Journal_corrupt
    (Engine.handle engine (Wire.Ask { id = "headerless" }));
  Engine.shutdown engine

(* --- Degradation: deadlines and idle timeouts --------------------------- *)

let test_deadline_degrades () =
  let dir = temp_dir "indq-serve-deadline" in
  (* Every clock() call advances a full second against a 0.5 s deadline:
     the first answered round must blow the budget. *)
  let t = ref 0. in
  let clock () =
    t := !t +. 1.;
    !t
  in
  let engine = mk_engine ~deadline:0.5 ~clock dir in
  (match reply (Engine.handle engine (Wire.Hello (mk_hello "slow"))) with
  | Wire.R_ask { round = 1; _ } -> ()
  | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r));
  check_error "deadline exceeded" Wire.Deadline_exceeded
    (Engine.handle engine (Wire.Answer { id = "slow"; round = 1; choice = 0 }));
  (* Degradation, not loss: the answer was applied, so the session moved
     to round 2 and keeps serving. *)
  (match reply (Engine.handle engine (Wire.Ask { id = "slow" })) with
  | Wire.R_ask { round = 2; _ } | Wire.R_done _ -> ()
  | r -> Alcotest.fail ("post-deadline ask: " ^ Wire.response_to_line r));
  Engine.shutdown engine

let test_idle_eviction () =
  let dir = temp_dir "indq-serve-idle" in
  let now = ref 0. in
  let engine = mk_engine ~idle_timeout:10. ~clock:(fun () -> !now) dir in
  let before = Counter.snapshot () in
  let ask1 id =
    match reply (Engine.handle engine (Wire.Hello (mk_hello id))) with
    | Wire.R_ask { round = 1; options; _ } -> options
    | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r)
  in
  let options_a = ask1 "a" in
  let _ = ask1 "b" in
  Alcotest.(check int) "both hydrated" 2 (Engine.hydrated engine);
  now := 5.;
  Engine.sweep engine;
  Alcotest.(check int) "nothing idle yet" 2 (Engine.hydrated engine);
  now := 100.;
  Engine.sweep engine;
  Alcotest.(check int) "both idle-evicted" 0 (Engine.hydrated engine);
  let delta = Counter.since before in
  let v name = match List.assoc_opt name delta with Some x -> x | None -> 0. in
  Alcotest.(check (float 0.)) "evictions counted" 2. (v "serve.evictions");
  (* Rehydration is transparent: the same pending round comes back. *)
  (match reply (Engine.handle engine (Wire.Ask { id = "a" })) with
  | Wire.R_ask { round = 1; options; _ } ->
    Alcotest.(check bool) "same options after rehydration" true
      (options = options_a)
  | r -> Alcotest.fail ("rehydrated ask: " ^ Wire.response_to_line r));
  let delta = Counter.since before in
  let v name = match List.assoc_opt name delta with Some x -> x | None -> 0. in
  Alcotest.(check (float 0.)) "hydration counted" 1. (v "serve.hydrations");
  Engine.shutdown engine

(* --- LRU eviction transparency ------------------------------------------ *)

(* Run [hellos] round-robin through an engine capped at [max_hydrated]
   sessions and byte-compare every final [done] line with an uncapped
   engine's: eviction plus rehydration must be invisible in the results,
   while the counters prove the round trips happened. *)
let check_eviction_transparency ~label ~max_hydrated hellos =
  let reference = reference_lines hellos in
  let dir = temp_dir "indq-serve-lru" in
  let engine = mk_engine ~max_hydrated dir in
  let before = Counter.snapshot () in
  (* One answer per session per pass: every pass churns all the sessions
     through the available slots. *)
  let finals =
    round_robin engine hellos ~after_pass:(fun () ->
        Alcotest.(check int)
          (label ^ ": capacity respected")
          max_hydrated (Engine.hydrated engine))
  in
  Engine.shutdown engine;
  let delta = Counter.since before in
  let v name = match List.assoc_opt name delta with Some x -> x | None -> 0. in
  Alcotest.(check bool) (label ^ ": evictions happened") true
    (v "serve.evictions" > 0.);
  Alcotest.(check bool) (label ^ ": rehydrations happened") true
    (v "serve.hydrations" > 0.);
  List.iteri
    (fun i (h, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: final line of %s byte-identical" label h.Wire.id)
        expected (List.nth finals i))
    (List.combine hellos reference)

let test_eviction_transparency () =
  check_eviction_transparency ~label:"6 sessions, 2 slots" ~max_hydrated:2
    (List.init 6 (fun i ->
         mk_hello ~n:80 ~seed:(100 + (7 * i)) (Printf.sprintf "lru-%d" i)));
  (* Larger anti-correlated catalogues, twelve sessions through three
     slots. *)
  check_eviction_transparency ~label:"12 sessions, 3 slots" ~max_hydrated:3
    (List.init 12 (fun i ->
         mk_hello ~data:"anti_correlated" ~n:300 ~seed:(2024 + (7 * i))
           (Printf.sprintf "evict-%02d" i)))

(* --- The shared catalogue table ----------------------------------------- *)

let delta_of before name =
  Option.value ~default:0. (List.assoc_opt name (Counter.since before))

let check_counts label before ~hits ~misses ~evictions =
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 0.)) (label ^ ": " ^ name) (float_of_int want)
        (delta_of before name))
    [
      ("catalogue.hits", hits);
      ("catalogue.misses", misses);
      ("catalogue.evictions", evictions);
    ]

(* The key is the canonical generator, seed, resolved n, d and eps: both
   spellings of one generator (and eps = 0, which resolves to the paper
   default) share one entry; another eps or n does not. *)
let test_catalogue_keys () =
  let dir = temp_dir "indq-serve-cat" in
  let engine = mk_engine dir in
  let cat = Engine.catalogue engine in
  let before = Counter.snapshot () in
  let hello ?(data = "anti_correlated") ?(n = 300) ?(eps = 0.) id =
    match
      reply
        (Engine.handle engine
           (Wire.Hello (mk_hello ~data ~n ~d:3 ~seed:5 ~eps id)))
    with
    | Wire.R_ask _ | Wire.R_done _ -> ()
    | r -> Alcotest.fail ("hello: " ^ Wire.response_to_line r)
  in
  hello ~data:"anti-correlated" "a";
  Alcotest.(check int) "first request is not admitted" 0 (Catalogue.resident cat);
  hello ~data:"anti_correlated" "b";
  Alcotest.(check int) "second spelling admits the key" 1 (Catalogue.resident cat);
  hello ~data:"Anti-Correlated" ~eps:0.05 "c";
  check_counts "one generator, two spellings" before ~hits:1 ~misses:2
    ~evictions:0;
  hello ~eps:0.1 "e1";
  hello ~eps:0.1 "e2";
  hello ~n:301 "n1";
  hello ~n:301 "n2";
  Alcotest.(check int) "eps and n are part of the key" 3 (Catalogue.resident cat);
  check_counts "distinct keys" before ~hits:1 ~misses:6 ~evictions:0;
  Engine.shutdown engine

(* Exact hit / miss / admission / eviction accounting against a byte
   budget, driving the table directly. *)
let test_catalogue_budget () =
  let fetch t seed =
    Catalogue.candidates t ~generator:"independent" ~seed ~n:200 ~d:3 ~eps:0.05
  in
  let probe = Catalogue.create () in
  let size seed =
    let b = Catalogue.bytes probe in
    ignore (fetch probe seed);
    ignore (fetch probe seed);
    Catalogue.bytes probe - b
  in
  let a = size 1 and b = size 2 in
  Alcotest.(check bool) "entries have a size" true (a > 0 && b > 0);
  (* Room for either entry, never both. *)
  let t = Catalogue.create ~budget:(a + b - 1) () in
  let rows_1 = Dataset.to_csv (fst (fetch probe 1)) in
  let before = Counter.snapshot () in
  let data, source_n = fetch t 1 in
  Alcotest.(check int) "source row count" 200 source_n;
  Alcotest.(check string) "a miss serves the skyline"
    (Dataset.to_csv
       (Skyline.prune_eps_dominated ~eps:0.05
          (Generator.independent (Rng.create 1) ~n:200 ~d:3)))
    (Dataset.to_csv data);
  Alcotest.(check int) "not admitted on first request" 0 (Catalogue.resident t);
  ignore (fetch t 1);
  Alcotest.(check int) "admitted on second request" a (Catalogue.bytes t);
  let data, _ = fetch t 1 in
  Alcotest.(check string) "a hit serves the same rows" rows_1
    (Dataset.to_csv data);
  check_counts "admission" before ~hits:1 ~misses:2 ~evictions:0;
  ignore (fetch t 2);
  ignore (fetch t 2);
  Alcotest.(check int) "admitting past the budget evicts the LRU entry" b
    (Catalogue.bytes t);
  Alcotest.(check int) "one entry resident" 1 (Catalogue.resident t);
  ignore (fetch t 1);
  Alcotest.(check int) "a recent key is readmitted" a (Catalogue.bytes t);
  check_counts "byte budget" before ~hits:1 ~misses:5 ~evictions:2;
  (* An entry larger than the whole budget is never admitted. *)
  let tiny = Catalogue.create ~budget:(a - 1) () in
  for _ = 1 to 3 do
    ignore (fetch tiny 1)
  done;
  Alcotest.(check int) "oversized entry never resident" 0 (Catalogue.resident tiny);
  (* The ring of recent keys is bounded: a key requested once, then
     crowded out by [recent_keys] others, is a first request again. *)
  let ring = Catalogue.create () in
  ignore (fetch ring 1);
  for seed = 100 to 99 + Catalogue.recent_keys do
    ignore (fetch ring seed)
  done;
  ignore (fetch ring 1);
  Alcotest.(check int) "forgotten keys are not admitted" 0 (Catalogue.resident ring);
  check_counts "whole test" before ~hits:1 ~misses:(10 + Catalogue.recent_keys)
    ~evictions:2

(* Content fingerprint computed afresh: [Store.fingerprint] memoizes, so a
   mutation after the first call would go unseen without the copy. *)
let deep_fingerprint s =
  Store.fingerprint (Store.select s (Array.init (Store.size s) Fun.id))

(* K catalogues shared by twice as many sessions behind an LRU of 2: every
   answer rehydrates from the shared table.  The final lines must equal
   journal-less sessions on freshly generated catalogues fed the same
   answers, and the shared stores must come out of the churn unmodified. *)
let test_catalogue_churn () =
  let k = 4 in
  let hellos =
    List.init (2 * k) (fun i ->
        mk_hello ~data:"anti_correlated" ~n:600 ~d:3 ~seed:(300 + (i mod k))
          (Printf.sprintf "churn-%d" i))
  in
  let reference =
    List.mapi
      (fun i (h : Wire.hello) ->
        let session =
          Session.start h.Wire.algo
            (Algo.default_config ~d:h.Wire.d)
            ~data:
              (Generator.by_name h.Wire.data (Rng.create h.Wire.seed)
                 ~n:h.Wire.n ~d:h.Wire.d)
            ~rng:(Rng.create (h.Wire.seed + 1))
        in
        let rec loop () =
          match Session.current session with
          | Session.Asking options ->
            let round = Session.questions_asked session + 1 in
            Session.answer session (choice_for i round options);
            loop ()
          | Session.Finished result ->
            Wire.response_to_line
              (Wire.R_done
                 {
                   id = h.Wire.id;
                   questions = Session.questions_asked session;
                   output =
                     List.map
                       (fun t -> (Tuple.id t, Vec.to_array (Tuple.values t)))
                       (Dataset.to_list result.Algo.output);
                 })
        in
        loop ())
      hellos
  in
  let dir = temp_dir "indq-serve-churn" in
  let engine = mk_engine ~max_hydrated:2 dir in
  let cat = Engine.catalogue engine in
  let before = Counter.snapshot () in
  let shared = ref [] in
  let finals =
    round_robin engine hellos ~after_pass:(fun () ->
        if !shared = [] then
          shared :=
            List.map (fun s -> (s, deep_fingerprint s)) (Catalogue.stores cat))
  in
  Engine.shutdown engine;
  Alcotest.(check int) "every catalogue shared" k (List.length !shared);
  Alcotest.(check bool) "rehydrations hit the table" true
    (delta_of before "catalogue.hits" > 0.);
  Alcotest.(check (float 0.)) "one build per catalogue and its admission"
    (float_of_int (2 * k)) (delta_of before "catalogue.misses");
  Alcotest.(check bool) "sessions were evicted" true
    (delta_of before "serve.evictions" > 0.);
  List.iter
    (fun (s, fp) ->
      Alcotest.(check string) "shared store unmodified" fp (deep_fingerprint s))
    !shared;
  List.iteri
    (fun i expected ->
      Alcotest.(check string)
        (Printf.sprintf "final line of churn-%d byte-identical" i)
        expected (List.nth finals i))
    reference

(* A journal header is input like any hello: an unknown generator or an
   over-limit n must come back as journal_corrupt, not an exception. *)
let test_hostile_header () =
  let dir = temp_dir "indq-serve-hostile" in
  let engine = mk_engine ~max_n:100 dir in
  let plant (h : Wire.hello) =
    let oc = open_out (Journal_store.path ~dir h.Wire.id) in
    output_string oc (Wire.request_to_line (Wire.Hello h) ^ "\n");
    close_out oc
  in
  plant (mk_hello ~data:"bogus" "bogus");
  check_error "unknown generator in a header" Wire.Journal_corrupt
    (Engine.handle engine (Wire.Resume { id = "bogus" }));
  plant (mk_hello ~n:5000 "huge");
  check_error "over-limit n in a header" Wire.Journal_corrupt
    (Engine.handle engine (Wire.Ask { id = "huge" }));
  Alcotest.(check int) "nothing hydrated" 0 (Engine.hydrated engine);
  Engine.shutdown engine

(* --- The kill-and-restart drill against the real binary ------------------ *)

(* The test binary lives in _build/default/test; the server binary it
   drills is its sibling at _build/default/bin, wherever dune set the
   working directory. *)
let indq_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "indq.exe")

let spawn_server ?(faults = []) ~sock ~dir () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ "indq"; "serve"; "--socket"; sock; "--dir"; dir; "--fsync"; "batch:4" ]
    @ List.concat_map (fun f -> [ "--fault"; f ]) faults
  in
  let pid = Unix.create_process indq_exe (Array.of_list args) null null null in
  Unix.close null;
  pid

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Send one hello, absorbing a torn header (the typed [journal_torn_write]
   error tells the client the hello simply did not happen). *)
let rec client_hello c h =
  match Sclient.rpc c (Wire.Hello h) with
  | Wire.R_ask _ | Wire.R_done _ -> ()
  | Wire.R_error { code = Wire.Torn_write; _ } -> client_hello c h
  | r -> Alcotest.fail ("drill hello: " ^ Wire.response_to_line r)

(* Advance session [i] by at most [budget] answered rounds, recovering
   from torn-write errors by re-asking (which rehydrates and rewrites).
   Returns the final encoded [done] line once the run finishes. *)
let client_advance c i id ~budget =
  let answered = ref 0 in
  let attempts = ref 0 in
  let rec loop () =
    incr attempts;
    if !attempts > 500 then Alcotest.fail ("drill: no progress on " ^ id);
    match Sclient.rpc c (Wire.Ask { id }) with
    | Wire.R_done _ as r -> Some (Wire.response_to_line r)
    | Wire.R_ask { id; round; options } ->
      if !answered >= budget then None
      else (
        (match
           Sclient.rpc c
             (Wire.Answer { id; round; choice = choice_for i round options })
         with
        | Wire.R_ask _ | Wire.R_done _ -> incr answered
        | Wire.R_error { code = Wire.Torn_write; _ } -> ()
        | r -> Alcotest.fail ("drill answer: " ^ Wire.response_to_line r));
        loop ())
    | Wire.R_error { code = Wire.Torn_write; _ } -> loop ()
    | r -> Alcotest.fail ("drill ask: " ^ Wire.response_to_line r)
  in
  loop ()

let run_drill ~faults ~label =
  let sessions = 50 in
  let hellos =
    List.init sessions (fun i ->
        mk_hello ~n:60 ~seed:(900 + i) (Printf.sprintf "drill-%02d" i))
  in
  let reference = reference_lines hellos in
  let root = temp_dir "indq-serve-drill" in
  let sock = Filename.concat root "indq.sock" in
  let dir = Filename.concat root "journals" in
  (* Interrupted depths: deterministic pseudo-random, including zero. *)
  let depth i = (i * 13 mod 9) in
  let pid = ref (spawn_server ~faults ~sock ~dir ()) in
  Fun.protect
    ~finally:(fun () -> kill_server !pid)
    (fun () ->
      let c = Sclient.connect (Server.Unix_path sock) in
      List.iteri
        (fun i h ->
          client_hello c h;
          ignore (client_advance c i h.Wire.id ~budget:(depth i)))
        hellos;
      (* The stats op must answer over the wire before the crash. *)
      (match Sclient.rpc c Wire.Stats with
      | Wire.R_stats { counters; _ } ->
        Alcotest.(check (float 0.))
          (label ^ ": sessions counted over the wire")
          (float_of_int sessions)
          (match List.assoc_opt "serve.sessions" counters with
          | Some v -> v
          | None -> 0.)
      | r -> Alcotest.fail ("drill stats: " ^ Wire.response_to_line r));
      Sclient.close c;
      (* SIGKILL mid-interview: no shutdown handler runs, the journals are
         all that survives. *)
      kill_server !pid;
      pid := spawn_server ~faults ~sock ~dir ();
      let c = Sclient.connect (Server.Unix_path sock) in
      let finals =
        List.mapi
          (fun i h ->
            (* Resume must rehydrate from the journal alone. *)
            (match Sclient.rpc c (Wire.Resume { id = h.Wire.id }) with
            | Wire.R_ask _ | Wire.R_done _ -> ()
            | Wire.R_error { code = Wire.Torn_write; _ } -> ()
            | r -> Alcotest.fail ("drill resume: " ^ Wire.response_to_line r));
            match client_advance c i h.Wire.id ~budget:max_int with
            | Some line -> line
            | None -> Alcotest.fail ("drill: " ^ h.Wire.id ^ " never finished"))
          hellos
      in
      Sclient.close c;
      List.iteri
        (fun i expected ->
          Alcotest.(check string)
            (Printf.sprintf "%s: drill-%02d byte-identical after crash" label i)
            expected (List.nth finals i))
        reference)

let test_drill_plain () = run_drill ~faults:[] ~label:"plain"

let test_drill_torn () =
  run_drill
    ~faults:[ "inject.journal_torn_write=every:35" ]
    ~label:"torn-write armed"

let test_drill_sync () =
  run_drill ~faults:[ "inject.journal_sync=every:5" ] ~label:"sync-failure armed"

(* Abusive input against the real server: an over-long line must come back
   as a typed [line_too_long] error (followed by the server closing the
   connection), never a crash — the server must keep serving after. *)
let test_line_too_long () =
  let root = temp_dir "indq-serve-long" in
  let sock = Filename.concat root "indq.sock" in
  let dir = Filename.concat root "journals" in
  let pid = spawn_server ~sock ~dir () in
  Fun.protect
    ~finally:(fun () -> kill_server pid)
    (fun () ->
      let c = Sclient.connect (Server.Unix_path sock) in
      Sclient.close c;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let junk = Bytes.make 100_000 'x' in
      (try
         let off = ref 0 in
         while !off < Bytes.length junk do
           off := !off + Unix.write fd junk !off (Bytes.length junk - !off)
         done
       with Unix.Unix_error _ -> ());
      let buf = Bytes.create 4096 in
      let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
      let got = Bytes.sub_string buf 0 n in
      Unix.close fd;
      Alcotest.(check bool) "typed line_too_long reply" true
        (n > 0
        &&
        match String.index_opt got '\n' with
        | Some nl -> (
          match Wire.parse_response (String.sub got 0 nl) with
          | Ok (Wire.R_error { code = Wire.Line_too_long; _ }) -> true
          | _ -> false)
        | None -> false);
      (* The connection died; the server did not. *)
      let c = Sclient.connect (Server.Unix_path sock) in
      (match Sclient.rpc c Wire.Stats with
      | Wire.R_stats _ -> ()
      | r -> Alcotest.fail ("post-abuse stats: " ^ Wire.response_to_line r));
      Sclient.close c)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "canonical round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "floats print as %.17g" `Quick
            test_wire_float_tokens;
          Alcotest.test_case "typed parse errors" `Quick test_wire_parse_errors;
          Alcotest.test_case "fsync policy parse" `Quick test_fsync_policy_parse;
        ] );
      ( "engine",
        [
          Alcotest.test_case "protocol errors are typed" `Quick
            test_engine_protocol_errors;
          Alcotest.test_case "session errors map to wire codes" `Quick
            test_session_error_mapping;
          Alcotest.test_case "deadline degrades gracefully" `Quick
            test_deadline_degrades;
          Alcotest.test_case "idle sessions evict and rehydrate" `Quick
            test_idle_eviction;
          Alcotest.test_case "LRU eviction is byte-transparent" `Quick
            test_eviction_transparency;
          Alcotest.test_case "hostile journal headers are typed" `Quick
            test_hostile_header;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "key spellings and fields" `Quick
            test_catalogue_keys;
          Alcotest.test_case "admission and byte budget" `Quick
            test_catalogue_budget;
          Alcotest.test_case "shared churn is byte-identical and read-only"
            `Quick test_catalogue_churn;
        ] );
      ( "drill",
        [
          Alcotest.test_case "kill-and-restart, 50 sessions" `Quick
            test_drill_plain;
          Alcotest.test_case "kill-and-restart under torn writes" `Quick
            test_drill_torn;
          Alcotest.test_case "kill-and-restart under sync failures" `Quick
            test_drill_sync;
          Alcotest.test_case "over-long line is a typed error" `Quick
            test_line_too_long;
        ] );
    ]
