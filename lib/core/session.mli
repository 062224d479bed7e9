(** Incremental driver for building interactive front ends.

    {!Algo.run} drives the whole interaction loop itself, which suits
    simulations; a UI instead wants to {i be} the user: receive one round of
    options, render them, send back a choice, repeat.  [Session] inverts
    control over the unchanged, fully-tested algorithms using OCaml 5
    effects — the algorithm runs as a coroutine that suspends at every
    question.

    {[
      let session = Session.start Algo.Squeeze_u config ~data ~rng in
      let rec loop () =
        match Session.current session with
        | Session.Asking options ->
          let choice = render_and_ask options in
          Session.answer session choice;
          loop ()
        | Session.Finished result -> result
      in
      loop ()
    ]}

    {b Crash recovery.}  A session started with [?journal] writes one
    record {i ahead} of every state change: a header fingerprinting the run
    (algorithm, config, data shape) and then each accepted answer, as one
    JSON object per line (the trace stream's JSONL idiom).  {!resume}
    replays a journal through the same coroutine machinery to reconstruct a
    crashed session — and because every algorithm is a deterministic
    function of (config, data, rng, answers), the reconstruction is
    byte-identical to the uninterrupted run.  Journal writes are counted in
    ["journal.records"], replayed answers in ["journal.replayed"], and the
    replay runs under the ["session.replay"] span. *)

type t

type error =
  | Already_finished
      (** {!answer} on a session whose algorithm already returned *)
  | Choice_out_of_range of { choice : int; options : int }
      (** {!answer} with an index outside the pending options *)
  | Journal_corrupt of { line : int; text : string }
      (** a journal line that does not parse as a journal record *)
  | Journal_mismatch of { round : int; reason : string }
      (** a parsed journal that contradicts the resume arguments or the
          replayed session (wrong algorithm or config fingerprint, wrong
          option count at a round, records after the run finished) *)

exception Error of error
(** The one exception this module raises for misuse and recovery failures. *)

val error_message : error -> string

type state =
  | Asking of Indq_linalg.Vec.t array
      (** the options to show for the current question *)
  | Finished of Algo.run_result

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
    }  (** run fingerprint, written once when the session starts *)
  | Answered of { round : int; options : int; choice : int }
      (** an accepted answer, written before the coroutine consumes it *)

val journal_entry_to_json : journal_entry -> string
(** One JSON object, no trailing newline. *)

val journal_of_string : ?strict:bool -> string -> journal_entry list
(** Parse a journal read back from disk (one record per line; blank lines
    ignored).  A record line must be a complete flat JSON object (closing
    brace included) — a byte-truncated record never parses, even when the
    chopped text would scan, so crash recovery can never replay an answer
    the user did not give.

    A crash mid-append leaves exactly one truncated final line.  By
    default ([strict = false]) that torn tail is dropped, counted in
    ["journal.torn_tail"], and parsing recovers to the last complete
    record.  Unparseable lines {e before} the last record always raise
    {!Error} ([Journal_corrupt]) — sequential appends cannot tear mid-file,
    so that is real corruption.  [~strict:true] keeps the historical
    behavior: the first unparseable line raises, tail included. *)

val start :
  ?trace:Indq_obs.Trace.sink ->
  ?journal:(journal_entry -> unit) ->
  ?source_n:int ->
  Algo.name ->
  Algo.config ->
  data:Indq_dataset.Dataset.t ->
  rng:Indq_util.Rng.t ->
  t
(** Begin a run.  The algorithm executes up to its first question (or to
    completion if it never needs one).  [trace] receives the run's
    structured events, exactly as {!Algo.run}[ ?trace] would — note the
    sink fires from inside the suspended coroutine, i.e. during {!start}
    and each {!answer} call.  [journal] receives the write-ahead journal
    records; persist each one (with a newline) before showing the user the
    next question and the session survives any crash.

    [source_n] says [data] is already the (1+eps)-skyline of a
    [source_n]-row catalogue, e.g. a candidate set shared by many
    sessions (see {!Algo.run}): Line 1 is skipped, and the journal header
    records [n = source_n], so the journal is byte-identical to the one
    the whole catalogue would produce and resumes either way. *)

val resume :
  ?trace:Indq_obs.Trace.sink ->
  ?journal:(journal_entry -> unit) ->
  ?source_n:int ->
  journal_entry list ->
  Algo.name ->
  Algo.config ->
  data:Indq_dataset.Dataset.t ->
  rng:Indq_util.Rng.t ->
  t
(** [resume entries name config ~data ~rng] reconstructs a session from a
    journal: validates the header against the supplied arguments (which
    must be the originals — the journal stores only a fingerprint, not the
    dataset or the RNG), starts the coroutine afresh and replays every
    journaled answer.  The resulting session is byte-identical to one that
    ran the same answers without interruption — same pending options or
    final result, same question count.  Replayed answers are not re-emitted
    to [journal]; answers given after the resume are.  [source_n] is as
    in {!start}.  Raises {!Error} on any inconsistency (the partly
    replayed coroutine is {!abandon}ed first). *)

val current : t -> state

val answer : t -> int -> unit
(** Answer the pending question with the index of the chosen option.
    Raises {!Error} ([Already_finished] / [Choice_out_of_range]) on
    misuse. *)

val abandon : t -> unit
(** Give up a session that will never be answered again: a suspended
    coroutine is ended by raising an internal exception at its pending
    question, so its fiber stack is freed (a dropped, still-suspended
    continuation is never reclaimed) and any spans it has open are
    recorded and popped.  Nothing is journaled and {!current} keeps its
    last value; a later {!answer} raises [Already_finished].  A no-op on
    a finished or already abandoned session. *)

val questions_asked : t -> int

val result : t -> Algo.run_result option
(** [Some] once finished. *)
