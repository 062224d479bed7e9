(** Dense float vectors over a flat [Bigarray] (Float64, C layout).

    Tuples, utility vectors, halfspace normals and LP rows all hold one of
    these.  The representation is abstract: construct with {!make},
    {!init}, {!basis} or {!of_array}, read with {!get} / {!to_array}.
    Functions that combine two vectors require equal lengths and raise
    [Invalid_argument] otherwise.

    The kernels ([dot], [axpy_ip], [scale_ip], ...) run bounds-check-free
    over the flat buffer after a single dimension check; coordinate
    traversal order is left-to-right, so every reduction computes the same
    float expression as the historical [float array] code. *)

type t

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The concrete backing type, exposed for the storage tier: a columnar
    store maps a file region as a flat [Array1] and wraps it without a
    copy. *)

val of_buffer : buffer -> t
(** Zero-copy adoption of an existing flat Float64 buffer (e.g. an
    [Unix.map_file] region).  The vector aliases the buffer: writes through
    either are visible in both. *)

val buffer : t -> buffer
(** The backing buffer, zero-copy (the inverse of {!of_buffer}).  Exists
    for the [@indq.alloc_free] kernels outside this library: a
    cross-module [get] call is never inlined under the dev profile
    (dune compiles with [-opaque]) and so boxes its float return, while
    the checked [Bigarray.Array1] primitives compile to plain loads in
    every profile.  Reading through the buffer keeps the exact same
    bounds checks and IEEE semantics as {!get}. *)

val dim : t -> int
(** Number of coordinates. *)

val make : int -> float -> t
(** [make d x] is the d-vector with every coordinate [x]. *)

val init : int -> (int -> float) -> t
(** [init d f] is the vector [f 0; f 1; ...; f (d-1)]. *)

val basis : int -> int -> t
(** [basis d i] is the i-th standard basis vector of R^d (0-indexed). *)

val of_array : float array -> t
(** Copy of a plain float array. *)

val of_list : float list -> t

val to_array : t -> float array
(** Fresh plain-array copy of the coordinates. *)

val to_list : t -> float list

val copy : t -> t

val get : t -> int -> float
(** Bounds-checked coordinate read. *)

val set : t -> int -> float -> unit
(** Bounds-checked coordinate write. *)

val fill : t -> float -> unit
(** Set every coordinate. *)

val blit : src:t -> dst:t -> unit
(** Copy [src] over [dst] (equal dimensions). *)

val sub_view : t -> pos:int -> len:int -> t
(** [sub_view v ~pos ~len] is a mutable {i view} of coordinates
    [pos .. pos+len-1]: writes through the view are visible in [v].
    Used for flat-matrix row views; O(1), no copy. *)

val dot : t -> t -> float
(** Inner product. *)

val dot_slice : t -> pos:int -> t -> float
(** [dot_slice flat ~pos u] is the inner product of [u] with the slice
    [flat[pos .. pos + dim u - 1]] — {!dot} against {!sub_view} without
    materializing the view.  Coordinate order is left-to-right, so the
    result is bit-identical to [dot (sub_view flat ~pos ~len:(dim u)) u].
    The row-major columnar store uses this for zero-allocation utility
    scans.  Raises [Invalid_argument] when the slice escapes [flat]. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val neg : t -> t
(** Coordinate-wise negation (fresh vector). *)

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y] (fresh vector). *)

(* In-place variants for hot loops (the simplex row operations run millions
   of these per solve); each coordinate computes exactly the same float
   expression as its allocating counterpart, so switching is bit-neutral. *)

val add_ip : t -> t -> unit
(** [add_ip y x] sets [y.(i) <- y.(i) +. x.(i)] for every coordinate. *)

val axpy_ip : float -> t -> t -> unit
(** [axpy_ip a x y] sets [y.(i) <- a *. x.(i) +. y.(i)] — [axpy] without the
    allocation. *)

val scale_ip : float -> t -> unit
(** [scale_ip c y] sets [y.(i) <- c *. y.(i)]. *)

(* Slice variants: the same per-coordinate expressions over
   [len]-coordinate ranges addressed by offset, for row-major tableaux
   kept in one flat buffer.  Each raises [Invalid_argument] when a range
   escapes its vector. *)

val axpy_slice :
  float -> t -> xpos:int -> t -> ypos:int -> len:int -> unit
(** [axpy_slice a x ~xpos y ~ypos ~len] sets
    [y.(ypos + i) <- a *. x.(xpos + i) +. y.(ypos + i)] for [i < len].
    [x] and [y] may be the same buffer if the two ranges do not
    overlap. *)

val scale_slice : float -> t -> pos:int -> len:int -> unit
(** [scale_slice c y ~pos ~len] sets [y.(i) <- c *. y.(i)] for
    [pos <= i < pos + len]. *)

val blit_slice : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [src.(src_pos .. src_pos + len - 1)] to
    [dst.(dst_pos .. dst_pos + len - 1)] (non-overlapping ranges). *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Max absolute coordinate. *)

val dist2 : t -> t -> float
(** Euclidean distance. *)

val normalize : t -> t
(** Scale to unit Euclidean norm.  Raises [Invalid_argument] on the zero
    vector. *)

val sum : t -> float

val max_coord : t -> float
(** Largest coordinate value.  Raises [Invalid_argument] on empty input. *)

val min_coord : t -> float

val argmax : t -> int
(** Index of the largest coordinate (first on ties). *)

val map : (float -> float) -> t -> t

val mapi : (int -> float -> float) -> t -> t

val iter : (float -> unit) -> t -> unit

val iteri : (int -> float -> unit) -> t -> unit

val fold_left : ('a -> float -> 'a) -> 'a -> t -> 'a

val for_all : (float -> bool) -> t -> bool

val exists : (float -> bool) -> t -> bool

val equal : t -> t -> bool
(** Exact (bitwise, via [Float.equal]) coordinate-wise equality. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Coordinate-wise comparison with tolerance. *)

val pp : Format.formatter -> t -> unit
(** Renders as [(x1, x2, ...)] with 4 decimals. *)

val to_string : t -> string
