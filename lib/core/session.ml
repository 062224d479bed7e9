module Oracle = Indq_user.Oracle
module Dataset = Indq_dataset.Dataset
module Counter = Indq_obs.Counter
module Span = Indq_obs.Span
module Histogram = Indq_obs.Histogram
module Timer = Indq_util.Timer

let c_records = Counter.make "journal.records"
let c_replayed = Counter.make "journal.replayed"
let c_torn_tail = Counter.make "journal.torn_tail"

(* Wall seconds between accepting an answer and yielding the next question
   (or finishing) — the interactive round latency the ROADMAP's session
   server will serve p99s from. *)
let h_round_latency = Histogram.make ~unit_:Seconds "session.round_latency"

type error =
  | Already_finished
  | Choice_out_of_range of { choice : int; options : int }
  | Journal_corrupt of { line : int; text : string }
  | Journal_mismatch of { round : int; reason : string }

exception Error of error

let error_message = function
  | Already_finished -> "Session.answer: session already finished"
  | Choice_out_of_range { choice; options } ->
    Printf.sprintf
      "Session.answer: choice %d out of range for %d options" choice options
  | Journal_corrupt { line; text } ->
    Printf.sprintf "Session journal: unparseable record on line %d: %s" line
      text
  | Journal_mismatch { round; reason } ->
    Printf.sprintf "Session.resume: journal mismatch at round %d: %s" round
      reason

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Indq_core.Session.Error: " ^ error_message e)
    | _ -> None)

(* --- Write-ahead journal ------------------------------------------------ *)

type journal_entry =
  | Started of {
      algo : string;
      s : int;
      q : int;
      eps : float;
      delta : float;
      trials : int;
      exact_prune : bool;
      n : int;
      d : int;
    }
  | Answered of { round : int; options : int; choice : int }

(* One JSON object per line, mirroring the trace stream's hand-rolled
   format (lib/obs/trace.ml).  Floats print with %.17g so [eps]/[delta]
   survive the round-trip bit-exactly — resume compares them against the
   caller's config. *)
let float_token x = Printf.sprintf "%.17g" x

let journal_entry_to_json = function
  | Started { algo; s; q; eps; delta; trials; exact_prune; n; d } ->
    Printf.sprintf
      {|{"type":"session_started","algo":"%s","s":%d,"q":%d,"eps":%s,"delta":%s,"trials":%d,"exact_prune":%b,"n":%d,"d":%d}|}
      algo s q (float_token eps) (float_token delta) trials exact_prune n d
  | Answered { round; options; choice } ->
    Printf.sprintf
      {|{"type":"answered","round":%d,"options":%d,"choice":%d}|} round
      options choice

(* Minimal field scanners in the trace parser's idiom: locate ["key":] and
   read the token after it.  Algorithm names contain no quotes or escapes,
   so string values run to the next double quote. *)
let find_key line key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let scalar_field line key =
  match find_key line key with
  | None -> None
  | Some start ->
    let n = String.length line in
    let stop = ref start in
    while
      !stop < n && (match line.[!stop] with ',' | '}' -> false | _ -> true)
    do
      incr stop
    done;
    Some (String.sub line start (!stop - start))

let string_field line key =
  match find_key line key with
  | None -> None
  | Some start when start < String.length line && line.[start] = '"' ->
    let stop = ref (start + 1) in
    let n = String.length line in
    while !stop < n && line.[!stop] <> '"' do
      incr stop
    done;
    if !stop < n then Some (String.sub line (start + 1) (!stop - start - 1))
    else None
  | Some _ -> None

let int_field line key = Option.bind (scalar_field line key) int_of_string_opt

let float_field line key =
  Option.bind (scalar_field line key) float_of_string_opt

let bool_field line key =
  Option.bind (scalar_field line key) bool_of_string_opt

let journal_entry_of_json_line ~line text =
  let corrupt () = raise (Error (Journal_corrupt { line; text })) in
  let req = function Some v -> v | None -> corrupt () in
  (* Completeness fence: every record is a single flat object, so a line
     that does not close its brace is a torn append, never a valid record.
     Without this check a record chopped inside its final numeric field
     ("choice":12 torn to "choice":1) would parse to a DIFFERENT record —
     fatal for crash recovery, which must only ever replay answers the
     user actually gave. *)
  let n = String.length text in
  if n < 2 || text.[0] <> '{' || text.[n - 1] <> '}' then corrupt ();
  match string_field text "type" with
  | Some "session_started" ->
    Started
      {
        algo = req (string_field text "algo");
        s = req (int_field text "s");
        q = req (int_field text "q");
        eps = req (float_field text "eps");
        delta = req (float_field text "delta");
        trials = req (int_field text "trials");
        exact_prune = req (bool_field text "exact_prune");
        n = req (int_field text "n");
        d = req (int_field text "d");
      }
  | Some "answered" ->
    Answered
      {
        round = req (int_field text "round");
        options = req (int_field text "options");
        choice = req (int_field text "choice");
      }
  | Some _ | None -> corrupt ()

(* A crash mid-append leaves a truncated final line.  By default that tail
   is dropped and counted in ["journal.torn_tail"] — the journal recovers
   to the last complete record, which write-ahead ordering guarantees is a
   state the user actually reached.  Unparseable lines anywhere BEFORE the
   last record can only mean real corruption (appends are sequential), so
   they always raise.  [~strict:true] restores the raise-on-any-bad-line
   behavior for callers that need tampering to be loud. *)
let journal_of_string ?(strict = false) text =
  let numbered =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, line) -> line <> "")
  in
  let rec go = function
    | [] -> []
    | [ (line, last) ] -> (
      match journal_entry_of_json_line ~line last with
      | entry -> [ entry ]
      | exception Error (Journal_corrupt _) when not strict ->
        Counter.incr c_torn_tail;
        [])
    | (line, text) :: rest ->
      journal_entry_of_json_line ~line text :: go rest
  in
  go numbered

(* --- The session coroutine --------------------------------------------- *)

type state =
  | Asking of Indq_linalg.Vec.t array
  | Finished of Algo.run_result

(* The algorithm coroutine performs [Ask] at each question; the session
   stores the one-shot continuation and resumes it on [answer]. *)
type _ Effect.t += Ask : Indq_linalg.Vec.t array -> int Effect.t

type suspended =
  | Pending of (int, state) Effect.Deep.continuation
  | Done

type t = {
  mutable state : state;
  mutable resume : suspended;
  mutable questions : int;
  mutable journal : (journal_entry -> unit) option;
}

let record t entry =
  match t.journal with
  | None -> ()
  | Some emit ->
    Counter.incr c_records;
    emit entry

let header name (config : Algo.config) ~n ~data =
  Started
    {
      algo = Algo.to_string name;
      s = config.Algo.s;
      q = config.Algo.q;
      eps = config.Algo.eps;
      delta = config.Algo.delta;
      trials = config.Algo.trials;
      exact_prune = config.Algo.exact_prune;
      n;
      d = Dataset.dim data;
    }

(* The catalogue size a session reports: the source row count when [data]
   is an already-filtered candidate set. *)
let source_size ?source_n data =
  Option.value source_n ~default:(Dataset.size data)

let start ?trace ?journal ?source_n name config ~data ~rng =
  let session =
    { state = Asking [||]; resume = Done; questions = 0; journal }
  in
  record session (header name config ~n:(source_size ?source_n data) ~data);
  let oracle = Oracle.of_chooser (fun options -> Effect.perform (Ask options)) in
  let final =
    Effect.Deep.match_with
      (fun () -> Algo.run ?trace ?source_n name config ~data ~oracle ~rng)
      ()
      {
        retc = (fun result -> Finished result);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Ask options ->
              Some
                (fun (k : (a, state) Effect.Deep.continuation) ->
                  session.resume <- Pending k;
                  Asking options)
            | _ -> None);
      }
  in
  session.state <- final;
  session

let current t = t.state

let questions_asked t = t.questions

let result t = match t.state with Finished r -> Some r | Asking _ -> None

let answer t choice =
  match (t.state, t.resume) with
  | Finished _, _ | _, Done -> raise (Error Already_finished)
  | Asking options, Pending k ->
    if choice < 0 || choice >= Array.length options then
      raise
        (Error
           (Choice_out_of_range { choice; options = Array.length options }));
    (* Write-ahead: journal the answer before the coroutine consumes it, so
       a crash at any point during the resulting computation replays to a
       state at least as advanced as this round. *)
    record t
      (Answered
         {
           round = t.questions + 1;
           options = Array.length options;
           choice;
         });
    t.resume <- Done;
    t.questions <- t.questions + 1;
    let started = Timer.wall () in
    t.state <- Effect.Deep.continue k choice;
    Histogram.observe h_round_latency (Timer.wall () -. started)

(* Raised into an abandoned coroutine at its pending question; it unwinds
   the algorithm's stack (closing its open spans) and is caught here. *)
exception Abandoned

let abandon t =
  match t.resume with
  | Done -> ()
  | Pending k -> (
    t.resume <- Done;
    t.journal <- None;
    match Effect.Deep.discontinue k Abandoned with
    | (_ : state) | (exception Abandoned) -> ())

let mismatch ~round reason = raise (Error (Journal_mismatch { round; reason }))

(* Validate a journal header against the arguments of the resume call.  The
   journal cannot carry the dataset or the RNG, so the caller must supply
   the originals; the header fingerprint catches the obvious drifts. *)
let check_header h name (config : Algo.config) ~source_n ~data =
  match h with
  | Answered _ ->
    mismatch ~round:0 "journal does not begin with a session_started record"
  | Started { algo; s; q; eps; delta; trials; exact_prune; n; d } ->
    let want fmt = Printf.sprintf fmt in
    if algo <> Algo.to_string name then
      mismatch ~round:0
        (want "journal is for algorithm %s, resume requested %s" algo
           (Algo.to_string name));
    if s <> config.Algo.s || q <> config.Algo.q then
      mismatch ~round:0
        (want "journal config (s=%d, q=%d) differs from (s=%d, q=%d)" s q
           config.Algo.s config.Algo.q);
    if
      (not (Float.equal eps config.Algo.eps))
      || not (Float.equal delta config.Algo.delta)
    then
      mismatch ~round:0
        (want "journal config (eps=%g, delta=%g) differs from (eps=%g, delta=%g)"
           eps delta config.Algo.eps config.Algo.delta);
    if trials <> config.Algo.trials then
      mismatch ~round:0
        (want "journal config (trials=%d) differs from (trials=%d)" trials
           config.Algo.trials);
    if exact_prune <> config.Algo.exact_prune then
      mismatch ~round:0 "journal config exact_prune flag differs";
    if n <> source_n || d <> Dataset.dim data then
      mismatch ~round:0
        (want "journal data shape (n=%d, d=%d) differs from (n=%d, d=%d)" n d
           source_n (Dataset.dim data))

let resume ?trace ?journal ?source_n entries name config ~data ~rng =
  match entries with
  | [] -> mismatch ~round:0 "empty journal"
  | h :: answers ->
    check_header h name config ~source_n:(source_size ?source_n data) ~data;
    (* Start without the journal sink: replayed answers must not be
       re-recorded (the caller typically appends to the same file). *)
    let t = start ?trace ?source_n name config ~data ~rng in
    (* A replay that fails part-way must not leave its coroutine
       suspended: nobody could resume it, and its fiber would leak. *)
    let replay () =
      Span.timed "session.replay" (fun () ->
          List.iter
            (fun entry ->
              match entry with
              | Started _ ->
                mismatch ~round:(t.questions + 1)
                  "unexpected second session_started record"
              | Answered { round; options; choice } -> (
                if round <> t.questions + 1 then
                  mismatch ~round
                    (Printf.sprintf "expected round %d next" (t.questions + 1));
                match t.state with
                | Finished _ ->
                  mismatch ~round "journal continues after the run finished"
                | Asking opts ->
                  if Array.length opts <> options then
                    mismatch ~round
                      (Printf.sprintf
                         "journal shows %d options, session asks %d" options
                         (Array.length opts));
                  Counter.incr c_replayed;
                  answer t choice))
            answers)
    in
    (match replay () with
    | () -> ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      abandon t;
      Printexc.raise_with_backtrace e bt);
    (* Future answers journal normally. *)
    t.journal <- journal;
    t
