(** The engine's table of pruned catalogues.

    A session's input is a builtin catalogue — a generator run from a
    seed — filtered by Observation 3's (1+eps)-skyline (Line 1 of
    Algorithms 1–3).  Neither depends on the user, so every session and
    every rehydration on the same (generator, seed, n, d, eps) starts
    from the same candidate rows.  The table computes them once and
    hands each session a fresh zero-copy {!Indq_dataset.Dataset.of_store}
    view of one shared, read-only {!Indq_dataset.Store.t} — only the
    flat candidate rows are kept, never the source catalogue, and each
    view's lazily built tuple array dies with its session.

    {b Admission and bounds.}  A key is admitted on its {e second}
    request: the first miss only records the key in a small ring of
    recently seen keys, so catalogues requested once (a short interview
    that never rehydrates) never occupy memory.  Resident entries are
    bounded by a byte budget with their own LRU; admitting past the
    budget evicts the least recently used entries.

    Counters: ["catalogue.hits"] (served from the table),
    ["catalogue.misses"] (built, whether admitted or not) and
    ["catalogue.evictions"] (entries dropped for the byte budget); a
    miss builds under the ["catalogue.build"] span. *)

type t

val default_budget : int
(** Resident candidate bytes per table: 8 MiB. *)

val recent_keys : int
(** Size of the ring of recently seen, not yet admitted keys: 64. *)

val create : ?budget:int -> unit -> t
(** An empty table holding at most [budget] (default {!default_budget})
    bytes of candidate rows.  [budget] must be non-negative. *)

val canonical : string -> string option
(** The canonical name of a builtin generator ([independent],
    [correlated], [anti_correlated]), case-insensitive and accepting
    ["anti-correlated"]; [None] for anything else. *)

val candidates :
  t ->
  generator:string ->
  seed:int ->
  n:int ->
  d:int ->
  eps:float ->
  Indq_dataset.Dataset.t * int
(** [candidates t ~generator ~seed ~n ~d ~eps] is the (1+eps)-skyline of
    the [n]-row catalogue [Generator.by_name generator (Rng.create seed)]
    as a fresh view, with the source row count [n] (the [source_n] of
    {!Indq_core.Session.start}).  The key is the canonical generator
    name, [seed], [n], [d] and the bits of [eps].  Raises
    [Invalid_argument] on a generator {!canonical} rejects. *)

val resident : t -> int
(** Entries currently held. *)

val bytes : t -> int
(** Candidate bytes currently held (8 per value and per id). *)

val stores : t -> Indq_dataset.Store.t list
(** The resident candidate stores, most recently used first.  Shared
    with every session that borrowed them: read-only. *)
