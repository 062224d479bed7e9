(** An intrusive recency list: O(1) insert, unlink and touch, with the
    least recently used element at the tail.  Callers keep their own
    index (a [Hashtbl] from key to node), so eviction never iterates a
    hashtable (rule IND001). *)

type 'a node

type 'a t

val create : unit -> 'a t

val node : 'a -> 'a node
(** A detached node carrying a value. *)

val value : 'a node -> 'a

val push_front : 'a t -> 'a node -> unit
(** Insert a detached node as the most recently used. *)

val unlink : 'a t -> 'a node -> unit
(** Detach a node that is on the list. *)

val touch : 'a t -> 'a node -> unit
(** Move a node on the list to the front. *)

val head : 'a t -> 'a node option
(** The most recently used node. *)

val tail : 'a t -> 'a node option
(** The least recently used node. *)

val next : 'a node -> 'a node option
(** The next node toward the tail. *)

val length : 'a t -> int
