(** The session server's transport-agnostic core: a pure request-in /
    response-out state machine over a bounded pool of hydrated sessions.

    The engine owns no sockets — {!Server} feeds it decoded lines, tests
    and the bench fault drivers call {!handle} directly — and it treats the
    journal directory as the only session registry: a session is {e the
    file} [DIR/id.journal], and memory holds at most [max_hydrated] live
    coroutines at a time on an LRU.  Any session can be evicted (sink
    closed, coroutine abandoned with {!Indq_core.Session.abandon}) and
    rehydrated later by replaying its journal; determinism of the
    algorithm stack makes the round trip byte-identical, which
    ["serve.evictions"] / ["serve.hydrations"] exist to prove.

    Sessions start and rehydrate from the engine's {!Catalogue}: the
    (1+eps)-skyline of each builtin catalogue is computed once and
    borrowed read-only by every session on it, instead of regenerating
    and re-pruning the catalogue per [hello] and per rehydration.

    Failures never escape: every misuse, corrupt journal, torn write or
    over-limit request maps to a typed {!Wire.response} error.  The four
    [Session.Error] cases each have a wire code ([already_finished],
    [choice_out_of_range], [journal_corrupt], [journal_mismatch]).

    Counters (all domain-local, all documented in DESIGN.md §13):
    ["serve.sessions"] created, ["serve.resumes"] explicit resume
    requests, ["serve.hydrations"] journal replays into memory,
    ["serve.evictions"] LRU/idle evictions of resumable sessions,
    ["serve.requests"] requests handled, ["serve.wire_errors"] typed error
    replies, ["catalogue.hits"] / ["catalogue.misses"] /
    ["catalogue.evictions"] for the shared candidate table (see
    {!Catalogue}), and the ["serve.round_latency"] histogram of wall
    seconds per answered round (journal append included).  The [stats]
    op reports every counter. *)

type config = {
  dir : string;  (** journal directory (created if missing) *)
  fsync : Journal_store.fsync_policy;
  max_hydrated : int;  (** LRU capacity, >= 1 *)
  idle_timeout : float;  (** evict sessions idle this long; 0 disables *)
  deadline : float;  (** per-answer compute budget in seconds; 0 disables *)
  max_n : int;  (** largest dataset a [hello] may request *)
  max_d : int;
  allow_shutdown : bool;  (** honor the [shutdown] op *)
  clock : unit -> float;
      (** time source for idle/deadline accounting — injectable so tests
          drive timeouts deterministically; defaults to [Timer.wall] *)
}

val default_config : dir:string -> config
(** [fsync = Batch 8], [max_hydrated = 1024], [idle_timeout = 0.],
    [deadline = 0.], [max_n = 200_000], [max_d = 16],
    [allow_shutdown = false], [clock = Timer.wall]. *)

type t

type outcome =
  | Reply of Wire.response
  | Disconnect
      (** the [inject.client_disconnect] fault fired: the transport must
          drop the connection without replying (session state is intact —
          the client recovers with [resume]/[ask]) *)
  | Stop of Wire.response
      (** a permitted [shutdown]: send the reply, then stop serving *)

val create : config -> t
(** Validates the config (raises [Invalid_argument] on a nonsensical one)
    and ensures the journal directory exists. *)

val handle : t -> Wire.request -> outcome

val handle_line : t -> string -> outcome
(** {!Wire.parse_request} + {!handle}; malformed bytes become a typed
    error reply, never an exception. *)

val sweep : t -> unit
(** Evict sessions idle longer than [idle_timeout].  The transport calls
    this between select wakeups; a no-op when [idle_timeout = 0]. *)

val hydrated : t -> int
(** Number of sessions currently live in memory (tests and stats). *)

val catalogue : t -> Catalogue.t
(** The engine's shared candidate table (tests). *)

val shutdown : t -> unit
(** Close every hydrated session's sink and abandon its coroutine
    (sessions stay resumable on disk). *)
