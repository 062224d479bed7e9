module Session = Indq_core.Session
module Algo = Indq_core.Algo
module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Vec = Indq_linalg.Vec
module Rng = Indq_util.Rng
module Timer = Indq_util.Timer
module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Fault = Indq_fault.Fault

let c_sessions = Counter.make "serve.sessions"
let c_resumes = Counter.make "serve.resumes"
let c_hydrations = Counter.make "serve.hydrations"
let c_evictions = Counter.make "serve.evictions"
let c_requests = Counter.make "serve.requests"
let c_wire_errors = Counter.make "serve.wire_errors"
let h_round = Histogram.make ~unit_:Seconds "serve.round_latency"

type config = {
  dir : string;
  fsync : Journal_store.fsync_policy;
  max_hydrated : int;
  idle_timeout : float;
  deadline : float;
  max_n : int;
  max_d : int;
  allow_shutdown : bool;
  clock : unit -> float;
}

let default_config ~dir =
  {
    dir;
    fsync = Journal_store.Batch 8;
    max_hydrated = 1024;
    idle_timeout = 0.;
    deadline = 0.;
    max_n = 200_000;
    max_d = 16;
    allow_shutdown = false;
    clock = Timer.wall;
  }

(* A hydrated session: the live coroutine plus its open journal sink, on
   an intrusive LRU list.  Cold sessions have no in-memory representation
   at all — the journal file is the registry. *)
type entry = {
  e_id : string;
  e_session : Session.t;
  e_sink : Journal_store.t;
  mutable e_touched : float;
}

type t = {
  cfg : config;
  table : (string, entry Lru.node) Hashtbl.t;  (** hydrated sessions only *)
  lru : entry Lru.t;
  catalogue : Catalogue.t;  (** pruned candidates shared by sessions *)
}

type outcome = Reply of Wire.response | Disconnect | Stop of Wire.response

(* Typed early exit: every refusal carries its wire error code and is
   turned into an [R_error] reply at the [handle] boundary. *)
exception Err of Wire.error_code * string

let err code fmt = Printf.ksprintf (fun msg -> raise (Err (code, msg))) fmt

let create cfg =
  if cfg.max_hydrated < 1 then
    invalid_arg "Engine.create: max_hydrated must be >= 1";
  if cfg.max_n < 1 || cfg.max_d < 1 then
    invalid_arg "Engine.create: max_n and max_d must be >= 1";
  Journal_store.ensure_dir cfg.dir;
  {
    cfg;
    table = Hashtbl.create 64;
    lru = Lru.create ();
    catalogue = Catalogue.create ();
  }

(* --- LRU list ----------------------------------------------------------- *)

let touch t node =
  (Lru.value node).e_touched <- t.cfg.clock ();
  Lru.touch t.lru node

(* Drop a hydrated session from memory.  [counted] marks transparent
   evictions (capacity or idleness) that the client never observes;
   explicit releases ([bye]) and torn-sink drops are not evictions.  The
   suspended coroutine is abandoned, not just forgotten: a dropped
   continuation's fiber stack is never reclaimed. *)
let drop t node ~counted =
  let e = Lru.value node in
  Session.abandon e.e_session;
  Journal_store.close e.e_sink;
  Hashtbl.remove t.table e.e_id;
  Lru.unlink t.lru node;
  if counted then Counter.incr c_evictions

let rec evict_overflow t =
  if Lru.length t.lru > t.cfg.max_hydrated then
    match Lru.tail t.lru with
    | Some node ->
      drop t node ~counted:true;
      evict_overflow t
    | None -> ()

let sweep t =
  if t.cfg.idle_timeout > 0. then begin
    let now = t.cfg.clock () in
    let rec go () =
      match Lru.tail t.lru with
      | Some node when now -. (Lru.value node).e_touched > t.cfg.idle_timeout
        ->
        drop t node ~counted:true;
        go ()
      | Some _ | None -> ()
    in
    go ()
  end

let hydrated t = Lru.length t.lru

let catalogue t = t.catalogue

let shutdown t =
  let rec go () =
    match Lru.head t.lru with
    | Some node ->
      drop t node ~counted:false;
      go ()
    | None -> ()
  in
  go ()

(* --- Deterministic session reconstruction ------------------------------- *)

(* Resolve the hello's zero-able fields against the paper defaults.  Pure
   in the hello, so the resolution at [create] time and at every rehydrate
   agrees — the journal header fingerprint depends on it. *)
let resolve (h : Wire.hello) =
  let n = if h.n > 0 then h.n else 1000 in
  let defaults = Algo.default_config ~d:h.d in
  let config =
    {
      Algo.s = (if h.s > 0 then h.s else defaults.Algo.s);
      q = (if h.q > 0 then h.q else defaults.Algo.q);
      eps = (if h.eps > 0. then h.eps else defaults.Algo.eps);
      delta = h.delta;
      trials = defaults.Algo.trials;
      exact_prune = defaults.Algo.exact_prune;
    }
  in
  (n, config)

let validate_hello t (h : Wire.hello) =
  if Catalogue.canonical h.data = None then
    err Wire.Bad_field
      "field \"data\" must be a builtin generator (independent, correlated, \
       anti_correlated): the server loads no files";
  let n, config = resolve h in
  if h.n < 0 || n > t.cfg.max_n then
    err Wire.Bad_field "field \"n\" must be in [0, %d]" t.cfg.max_n;
  if h.d < 1 || h.d > t.cfg.max_d then
    err Wire.Bad_field "field \"d\" must be in [1, %d]" t.cfg.max_d;
  if h.s < 0 || config.Algo.s > 64 || config.Algo.s > n then
    err Wire.Bad_field "field \"s\" must be in [0, min (64, n)]";
  if h.q < 0 || config.Algo.q > 100_000 then
    err Wire.Bad_field "field \"q\" must be in [0, 100000]";
  if (not (Float.is_finite h.eps)) || h.eps < 0. then
    err Wire.Bad_field "field \"eps\" must be a non-negative finite number";
  if (not (Float.is_finite h.delta)) || h.delta < 0. || h.delta >= 1. then
    err Wire.Bad_field "field \"delta\" must be in [0, 1)"

(* Both the dataset and the session RNG derive from the hello's seed, so a
   rehydrated session sees bit-identical inputs: data from [seed], the
   algorithm's own randomness from [seed + 1].  The dataset arrives
   already (1+eps)-filtered from the shared catalogue table, with its
   source row count. *)
let candidates t (h : Wire.hello) =
  let n, config = resolve h in
  Catalogue.candidates t.catalogue ~generator:h.data ~seed:h.seed ~n ~d:h.d
    ~eps:config.Algo.eps

let session_rng (h : Wire.hello) = Rng.create (h.seed + 1)

let code_of_session_error = function
  | Session.Already_finished -> Wire.Already_finished
  | Session.Choice_out_of_range _ -> Wire.Choice_out_of_range
  | Session.Journal_corrupt _ -> Wire.Journal_corrupt
  | Session.Journal_mismatch _ -> Wire.Journal_mismatch

let session_err e = raise (Err (code_of_session_error e, Session.error_message e))

(* --- Hydration ---------------------------------------------------------- *)

let insert t session sink id =
  let e =
    {
      e_id = id;
      e_session = session;
      e_sink = sink;
      e_touched = t.cfg.clock ();
    }
  in
  let node = Lru.node e in
  Hashtbl.replace t.table id node;
  Lru.push_front t.lru node;
  evict_overflow t;
  e

let hydrate t id =
  match Hashtbl.find_opt t.table id with
  | Some node ->
    touch t node;
    Lru.value node
  | None -> (
    match Journal_store.load ~dir:t.cfg.dir id with
    | Error Journal_store.No_session ->
      err Wire.Unknown_session "no session %S on this server" id
    | Error (Journal_store.Bad_header msg) ->
      err Wire.Journal_corrupt "session %S journal header: %s" id msg
    | Error (Journal_store.Bad_journal e) -> session_err e
    | Ok loaded -> (
      let hello = loaded.Journal_store.hello in
      (* The header is input like any hello: a tampered one must not name
         an unknown generator or an over-limit catalogue. *)
      (try validate_hello t hello
       with Err (_, msg) ->
         err Wire.Journal_corrupt "session %S journal header: %s" id msg);
      let _, config = resolve hello in
      let sink =
        Journal_store.reopen ~dir:t.cfg.dir ~fsync:t.cfg.fsync
          ~rewrite:loaded.Journal_store.torn_tail loaded id
      in
      match
        let data, source_n = candidates t hello in
        Session.resume
          ~journal:(fun entry -> Journal_store.append sink entry)
          ~source_n loaded.Journal_store.entries hello.Wire.algo config ~data
          ~rng:(session_rng hello)
      with
      | session ->
        Counter.incr c_hydrations;
        insert t session sink id
      | exception e ->
        Journal_store.close sink;
        (match e with Session.Error se -> session_err se | e -> raise e)))

(* --- Request handling --------------------------------------------------- *)

let state_reply e =
  match Session.current e.e_session with
  | Session.Asking options ->
    Reply
      (Wire.R_ask
         {
           id = e.e_id;
           round = Session.questions_asked e.e_session + 1;
           options = Array.map Vec.to_array options;
         })
  | Session.Finished result ->
    let output =
      List.map
        (fun tuple -> (Tuple.id tuple, Vec.to_array (Tuple.values tuple)))
        (Dataset.to_list result.Algo.output)
    in
    Reply
      (Wire.R_done
         {
           id = e.e_id;
           questions = Session.questions_asked e.e_session;
           output;
         })

let do_hello t (h : Wire.hello) =
  if Hashtbl.mem t.table h.id || Journal_store.exists ~dir:t.cfg.dir h.id then
    err Wire.Session_exists "session %S already exists; resume it" h.id;
  validate_hello t h;
  let _, config = resolve h in
  match
    let sink = Journal_store.create ~dir:t.cfg.dir ~fsync:t.cfg.fsync h in
    match
      let data, source_n = candidates t h in
      Session.start
        ~journal:(fun entry -> Journal_store.append sink entry)
        ~source_n h.algo config ~data ~rng:(session_rng h)
    with
    | session -> (sink, session)
    | exception e ->
      Journal_store.close sink;
      raise e
  with
  | sink, session ->
    Counter.incr c_sessions;
    state_reply (insert t session sink h.id)
  | exception Journal_store.Torn _ ->
    (* Torn while journaling the header or the session's first record:
       creation is atomic, so remove the stub file — the client may simply
       retry the hello. *)
    (try Sys.remove (Journal_store.path ~dir:t.cfg.dir h.id)
     with Sys_error _ -> ());
    err Wire.Torn_write "journal append torn during hello; retry"

let do_answer t id ~round ~choice =
  let e = hydrate t id in
  match Session.current e.e_session with
  | Session.Finished _ ->
    err Wire.Already_finished "%s" (Session.error_message Session.Already_finished)
  | Session.Asking _ ->
    let expected = Session.questions_asked e.e_session + 1 in
    if round <> expected then
      err Wire.Round_mismatch
        "answer names round %d but round %d is pending (ask to refetch)" round
        expected;
    let started = t.cfg.clock () in
    (match Session.answer e.e_session choice with
    | () -> ()
    | exception Session.Error se -> session_err se
    | exception Journal_store.Torn _ ->
      (* The append tore before the coroutine consumed the answer, so the
         in-memory state never advanced — but the file now has a torn tail.
         Treat the session as crashed: drop it, and let the client's resume
         run torn-tail recovery.  The journal is the truth. *)
      drop t (Hashtbl.find t.table id) ~counted:false;
      err Wire.Torn_write
        "journal append torn; session %S evicted, resume to recover" id);
    let elapsed = t.cfg.clock () -. started in
    Histogram.observe h_round elapsed;
    if t.cfg.deadline > 0. && elapsed > t.cfg.deadline then
      err Wire.Deadline_exceeded
        "round took %.3fs against a %.3fs deadline; the answer was applied, \
         ask to refetch" elapsed t.cfg.deadline;
    state_reply e

let do_bye t id =
  match Hashtbl.find_opt t.table id with
  | Some node ->
    drop t node ~counted:false;
    Reply (Wire.R_ok { id = Some id })
  | None ->
    if Journal_store.exists ~dir:t.cfg.dir id then
      Reply (Wire.R_ok { id = Some id })
    else err Wire.Unknown_session "no session %S on this server" id

let stats_reply () =
  let snap = Histogram.value h_round in
  Reply
    (Wire.R_stats
       {
         counters = Counter.snapshot ();
         round_latency =
           {
             Wire.p_count = snap.Histogram.count;
             p50 = Histogram.p50 snap;
             p90 = Histogram.p90 snap;
             p99 = Histogram.p99 snap;
           };
       })

let dispatch t req =
  match req with
  | Wire.Hello h -> do_hello t h
  | Wire.Resume { id } ->
    let e = hydrate t id in
    Counter.incr c_resumes;
    state_reply e
  | Wire.Ask { id } -> state_reply (hydrate t id)
  | Wire.Answer { id; round; choice } -> do_answer t id ~round ~choice
  | Wire.Bye { id } -> do_bye t id
  | Wire.Stats -> stats_reply ()
  | Wire.Shutdown ->
    if t.cfg.allow_shutdown then Stop (Wire.R_ok { id = None })
    else err Wire.Forbidden "shutdown is disabled on this server"

let request_id = function
  | Wire.Hello { id; _ }
  | Wire.Resume { id }
  | Wire.Ask { id }
  | Wire.Answer { id; _ }
  | Wire.Bye { id } -> Some id
  | Wire.Stats | Wire.Shutdown -> None

let error_reply id code message =
  Counter.incr c_wire_errors;
  Reply (Wire.R_error { id; code; message })

let handle t req =
  Counter.incr c_requests;
  let out =
    try dispatch t req
    with Err (code, message) -> error_reply (request_id req) code message
  in
  match out with
  | Reply r ->
    (* The transport drops the connection instead of delivering the reply —
       the client's next move (reconnect, resume, ask) is the recovery path
       this fault exists to exercise. *)
    if Fault.fire "inject.client_disconnect" then Disconnect else Reply r
  | Disconnect | Stop _ -> out

let handle_line t line =
  match Wire.parse_request line with
  | Ok req -> handle t req
  | Error (code, message) ->
    Counter.incr c_requests;
    error_reply None code message
