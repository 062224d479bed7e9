(* The three served workloads and the closed-loop clients that drive them.

   A workload is a fixed server configuration plus a per-connection
   script: a state machine that, given the reply to its last request,
   picks the next one.  Scripts are pure in (workload, seed, replies), so
   the socket load generator and the in-process traced replay issue the
   same request stream per connection.  Users are exact: each answers
   with the argmax of a hidden utility drawn from the workload seed; the
   server sees only wire requests. *)

module Wire = Indq_server.Wire
module Algo = Indq_core.Algo
module Utility = Indq_user.Utility
module Generator = Indq_dataset.Generator
module Dataset = Indq_dataset.Dataset
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

type kind = Lp_interview | Churn_rehydrate | Light_journal

type t = {
  kind : kind;
  name : string;
  data : string;  (** builtin generator behind every catalogue *)
  n : int;
  d : int;
  q : int;  (** question budget sent in [hello]; 0 = paper default *)
  fsync : string;  (** [indq serve --fsync] *)
  max_hydrated : int;  (** [indq serve --max-hydrated] *)
  slots : int;  (** sessions each connection cycles through *)
  ask_first : bool;  (** re-fetch the question ([ask]) before answering *)
  bye_on_done : bool;  (** release every finished session *)
  seed : int;
}

(* Closed-loop connections per workload, zero think time: two clients on
   the single-threaded server expose head-of-line blocking. *)
let conns = 2

let names = [ "lp-interview"; "churn-rehydrate"; "light-journal" ]

(* [smoke] shrinks every workload to seconds; the shapes (and so the
   shape guards) stay the same. *)
let make ~smoke ~seed name =
  let base =
    {
      kind = Lp_interview;
      name;
      data = "anti_correlated";
      n = (if smoke then 500 else 10_000);
      d = 4;
      q = 0;
      fsync = "batch:8";
      max_hydrated = 1024;
      slots = 1;
      ask_first = false;
      bye_on_done = true;
      seed;
    }
  in
  match name with
  | "lp-interview" -> Some base
  | "churn-rehydrate" ->
    (* 24 resumable sessions against an LRU of 4: every answer finds its
       session evicted.  A 4-question budget lets sessions finish inside
       one run, so final [done] lines exist to byte-compare.  Records are
       not fsynced: every eviction closes a sink, and under [batch:K] that
       close is an fsync whose latency on a virtual disk swings with the
       host's I/O load. *)
    Some
      {
        base with
        kind = Churn_rehydrate;
        q = 4;
        fsync = "never";
        bye_on_done = false;
        max_hydrated = (if smoke then 2 else 4);
        slots = (if smoke then 4 else 12);
      }
  | "light-journal" ->
    (* Compute is about 10 us a round, so Wire, Server and Journal_store
       dominate.  Records are not fsynced ([never]; each session's header
       still is): on a virtual disk the fsync latency swings with the
       host's I/O load and would drown every round metric.  Long
       interviews (100 questions) over n=2000 catalogues keep that one
       header fsync a small, steady part of each session. *)
    Some
      {
        base with
        kind = Light_journal;
        data = "independent";
        n = (if smoke then 400 else 2_000);
        d = 3;
        q = 100;
        fsync = "never";
        ask_first = true;
      }
  | _ -> None

let describe w =
  Wire.Obj
    [
      ("data", Wire.Str w.data);
      ("n", Wire.Num (float_of_int w.n));
      ("d", Wire.Num (float_of_int w.d));
      ("q", Wire.Num (float_of_int w.q));
      ("fsync", Wire.Str w.fsync);
      ("max_hydrated", Wire.Num (float_of_int w.max_hydrated));
      ("conns", Wire.Num (float_of_int conns));
      ("sessions_per_conn", Wire.Num (float_of_int w.slots));
      ("ask_first", Wire.Bool w.ask_first);
      ("bye_on_done", Wire.Bool w.bye_on_done);
    ]

(* Deterministic integer mixing for derived seeds (kept below 2^30 so a
   seed survives the wire's float encoding exactly). *)
let mix a b = ((a * 1_000_003) + b) land 0x3FFF_FFFF

(* --- Sessions ------------------------------------------------------------ *)

type session = {
  id : string;
  hello : Wire.hello;
  user : Utility.t;
  mutable choices : (int * int) list;  (** (round, choice), newest first *)
  mutable final : string option;  (** the [done] line as received *)
}

(* Catalogue seed: one shared catalogue (lp-interview), one per session
   slot (churn-rehydrate), or one per session (light-journal).  The first
   two are fixed: a round there costs what its catalogue's skyline costs
   (lp-interview's one catalogue, churn-rehydrate's 24 rehydrated ones),
   so seed-derived catalogues would move a whole run's round cost from
   seed to seed.  There the seed varies the users instead; light-journal
   averages over hundreds of catalogues a run. *)
let catalogue_seed w ~conn ~slot ~k =
  match w.kind with
  | Lp_interview -> 17
  | Churn_rehydrate -> mix 29 (conn + (conns * slot))
  | Light_journal -> mix (mix w.seed 43) ((conn * 1_000_000) + k)

(* Hidden utilities: a randomly shifted Halton sequence mapped onto the
   simplex (randomised quasi-Monte Carlo).  Every seed gives different
   users, yet the users of any run cover the simplex evenly, so the mix of
   easy and hard interviews — and with it the round cost — does not swing
   from seed to seed. *)
let primes = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 |]

let radical_inverse base i =
  let rec go i f acc =
    if i = 0 then acc
    else go (i / base) (f /. float_of_int base) (acc +. (f *. float_of_int (i mod base)))
  in
  go i (1. /. float_of_int base) 0.

let user w index =
  let shift = Rng.create (mix w.seed 7) in
  let cuts =
    Array.init (w.d - 1) (fun j ->
        let x = radical_inverse primes.(j) (index + 1) +. Rng.uniform shift in
        x -. Float.of_int (truncate x))
  in
  Array.sort Float.compare cuts;
  (* Spacings of sorted uniforms are uniform on the simplex. *)
  Vec.of_array
    (Array.init w.d (fun j ->
         let hi = if j = w.d - 1 then 1. else cuts.(j) in
         let lo = if j = 0 then 0. else cuts.(j - 1) in
         hi -. lo))

let new_session w ~conn ~slot ~k =
  let algo =
    match w.kind with
    | Lp_interview -> if (conn + k) mod 2 = 0 then Algo.MinR else Algo.MinD
    | Churn_rehydrate | Light_journal -> Algo.Squeeze_u
  in
  let id = Printf.sprintf "c%d-s%d-%d" conn slot k in
  let hello =
    {
      Wire.id;
      algo;
      data = w.data;
      n = w.n;
      d = w.d;
      seed = catalogue_seed w ~conn ~slot ~k;
      s = 0;
      q = w.q;
      eps = 0.;
      delta = 0.;
    }
  in
  let user = user w ((k * conns) + conn) in
  { id; hello; user; choices = []; final = None }

(* The engine's resolution of a hello's zero fields and its derivation
   of the dataset and session RNG from the hello seed — mirrored here so
   the checks and the per-layer replays rebuild exactly what the server
   built. *)
let config_of (h : Wire.hello) =
  let c = Algo.default_config ~d:h.Wire.d in
  { c with Algo.q = (if h.Wire.q > 0 then h.Wire.q else c.Algo.q) }

let catalogue (h : Wire.hello) =
  Generator.by_name h.Wire.data (Rng.create h.Wire.seed) ~n:h.Wire.n ~d:h.Wire.d

let session_rng (h : Wire.hello) = Rng.create (h.Wire.seed + 1)

(* --- Connection scripts -------------------------------------------------- *)

type op = Hello | Ask | Answer | Bye

type slot = {
  mutable sess : session option;
  mutable pending : (int * float array array) option;  (** round, options *)
  mutable asked : bool;  (** the pending round was re-fetched *)
  mutable released : bool;  (** finished; [bye] is next *)
}

type conn = {
  index : int;
  slot_states : slot array;
  mutable cursor : int;
  mutable made : int;  (** sessions created on this connection *)
}

type request = { op : op; slot : int; req : Wire.request }

let conn w index =
  {
    index;
    slot_states =
      Array.init w.slots (fun _ ->
          { sess = None; pending = None; asked = false; released = false });
    cursor = 0;
    made = 0;
  }

(* Every session this script has created, newest first. *)
type log = {
  mutable created : session list;
  mutable finished : session list;
}

let new_log () = { created = []; finished = [] }

let next w log c =
  let st = c.slot_states.(c.cursor) in
  let request op req = { op; slot = c.cursor; req } in
  match st.sess with
  | None ->
    let s = new_session w ~conn:c.index ~slot:c.cursor ~k:c.made in
    c.made <- c.made + 1;
    st.sess <- Some s;
    log.created <- s :: log.created;
    request Hello (Wire.Hello s.hello)
  | Some s -> (
    if st.released then request Bye (Wire.Bye { id = s.id })
    else
      match st.pending with
      | Some _ when w.ask_first && not st.asked ->
        request Ask (Wire.Ask { id = s.id })
      | Some (round, options) ->
        let choice = Utility.best_index s.user (Array.map Vec.of_array options) in
        s.choices <- (round, choice) :: s.choices;
        request Answer (Wire.Answer { id = s.id; round; choice })
      | None -> invalid_arg "Workload.next: session without a pending round")

(* Feed the reply to [r] back into the script.  [line] is the reply as
   received.  Returns [Error] on any reply the exact user cannot accept;
   the session is then abandoned. *)
let on_reply w log c r line resp =
  let st = c.slot_states.(r.slot) in
  let abandon msg =
    st.sess <- None;
    st.pending <- None;
    st.released <- false;
    Error msg
  in
  let result =
    match (r.op, resp, st.sess) with
    | (Hello | Answer | Ask), Wire.R_ask { round; options; _ }, Some _ ->
      st.pending <- Some (round, options);
      st.asked <- r.op = Ask;
      Ok ()
    | (Hello | Answer), Wire.R_done _, Some s ->
      s.final <- Some line;
      log.finished <- s :: log.finished;
      st.pending <- None;
      if w.bye_on_done then st.released <- true else st.sess <- None;
      Ok ()
    | Bye, Wire.R_ok _, Some _ ->
      st.sess <- None;
      st.released <- false;
      Ok ()
    | _, Wire.R_error { code; message; _ }, _ ->
      abandon (Printf.sprintf "%s: %s" (Wire.code_string code) message)
    | _ -> abandon ("unexpected reply: " ^ line)
  in
  (* churn-rehydrate walks its sessions round-robin: one round each. *)
  (match r.op with
  | Hello | Answer -> c.cursor <- (c.cursor + 1) mod Array.length c.slot_states
  | Ask | Bye -> ());
  result
