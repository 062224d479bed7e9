(** A packed, static STR-tree over the rows of a flat columnar buffer.

    The index is built once, bottom-up, from a {!Indq_linalg.Vec.t}
    holding [n] rows of [dim] coordinates — the buffer a columnar store
    exposes.  Its entire structure is a row permutation (one int array)
    plus two flat Float64 bound buffers per level with implicit
    [fanout]-ary child addressing, so a 10^7-point tree is a handful of
    allocations and never touches a per-node heap object.

    Every node test during a query increments [rtree.nodes_visited];
    building increments [rtree.bulk_nodes] per node and observes leaf
    occupancy in the [rtree.leaf_fill] histogram. *)

type t

val build : ?leaf_cap:int -> ?fanout:int -> dim:int -> Indq_linalg.Vec.t -> int -> t
(** [build ~dim data n] indexes rows [0 .. n-1] of the row-major flat
    buffer [data] (which must hold at least [n * dim] coordinates; the
    tree aliases it — no copy).  Sort-tile-recursive: the row permutation
    is tiled axis by axis into leaves of at most [leaf_cap] (default 32)
    rows, then each level packs [fanout] (default 8) consecutive nodes
    under one parent until a single root remains.  Deterministic: slab
    counts use exact integer arithmetic, never libm [pow]. *)

val dim : t -> int

val size : t -> int
(** Number of indexed rows. *)

val depth : t -> int
(** Number of levels (0 when empty, 1 when a single leaf is the root). *)

val leaf_count : t -> int

val exists_in_box :
  t -> lo:Indq_linalg.Vec.t -> hi:Indq_linalg.Vec.t -> f:(int -> bool) -> bool
(** [exists_in_box t ~lo ~hi ~f] — true as soon as [f pos] accepts some row
    position whose point lies in the closed box [[lo, hi]].  Early exit;
    the workhorse of columnar dominance tests. *)

val fold_in_box :
  t ->
  lo:Indq_linalg.Vec.t ->
  hi:Indq_linalg.Vec.t ->
  init:'a ->
  f:('a -> int -> 'a) ->
  'a
(** Fold [f] over every row position inside the box, in traversal order. *)

val collect_in_box :
  t -> lo:Indq_linalg.Vec.t -> hi:Indq_linalg.Vec.t -> int list
(** All row positions inside the box, in traversal order (tests compare
    this against a brute-force scan). *)

val check_invariants : t -> bool
(** Structural sanity: the permutation is a bijection on rows, every box
    contains its children (points at leaves, boxes above), the top level is
    a single root.  For tests. *)
