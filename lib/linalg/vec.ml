(* Flat Bigarray backing: one contiguous Float64 buffer per vector, C
   layout.  IEEE double arithmetic on Bigarray cells is the same operation
   as on [float array] cells, so every kernel below computes bit-identical
   results to the historical array code as long as the traversal order
   (left to right) is preserved — which it is, in every loop.

   [Array1.unsafe_get]/[unsafe_set] are confined to this library by lint
   rule IND009: each kernel validates dimensions once up front, after
   which in-range indexing is structural. *)

open Bigarray

type t = (float, float64_elt, c_layout) Array1.t

type buffer = (float, float64_elt, c_layout) Array1.t

let of_buffer (b : buffer) : t = b

let buffer (v : t) : buffer = v

(* The [(v : t)] annotations below are load-bearing: they fix the kind
   and layout of every kernel's Bigarray arguments, so each
   [Array1.unsafe_get] compiles to an unboxed Float64 load.  Left
   polymorphic, a kernel goes through the generic C accessor, which boxes
   every float it reads (ANA002 reports such a kernel). *)
let dim (v : t) = Array1.dim v
[@@inline] [@@indq.alloc_free "the %caml_ba_dim_1 primitive at the Float64 kind"]

let create d =
  if d < 0 then invalid_arg "Vec.create: negative dimension";
  Array1.create Float64 c_layout d

let make d x =
  let v = create d in
  Array1.fill v x;
  v

let init d f =
  let v = create d in
  for i = 0 to d - 1 do
    Array1.unsafe_set v i (f i)
  done;
  v

let basis d i =
  if i < 0 || i >= d then invalid_arg "Vec.basis: index out of range";
  init d (fun j -> if j = i then 1. else 0.)

let of_array a = init (Array.length a) (Array.unsafe_get a)

let of_list l = of_array (Array.of_list l)

let to_array v = Array.init (dim v) (Array1.unsafe_get v)

let to_list v = Array.to_list (to_array v)

let copy v =
  let w = create (dim v) in
  Array1.blit v w;
  w

let get (v : t) i = Array1.get v i
[@@inline] [@@indq.alloc_free "bounds-checked Bigarray read primitive"]

let set (v : t) i x = Array1.set v i x
[@@inline] [@@indq.alloc_free "bounds-checked Bigarray write primitive"]

let fill (v : t) x = Array1.fill v x

let check_same_dim name (a : t) (b : t) =
  if dim a <> dim b then
    (invalid_arg (name ^ ": dimension mismatch")
    [@indq.alloc_ok "cold caller-bug path: the message concat and raise \
                     run only on a precondition violation"])
[@@indq.alloc_free "dimension guard shared by every kernel"]

let blit ~src ~dst =
  check_same_dim "Vec.blit" src dst;
  Array1.blit src dst

let sub_view (v : t) ~pos ~len = Array1.sub v pos len

let dot a b =
  check_same_dim "Vec.dot" a b;
  let acc = ref 0. in
  for i = 0 to dim a - 1 do
    acc := !acc +. (Array1.unsafe_get a i *. Array1.unsafe_get b i)
  done;
  !acc
[@@indq.alloc_free "hot kernel: local float accumulator is unboxed"]

let dot_slice flat ~pos u =
  let k = dim u in
  if pos < 0 || pos + k > dim flat then
    invalid_arg "Vec.dot_slice: slice out of range";
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (Array1.unsafe_get flat (pos + i) *. Array1.unsafe_get u i)
  done;
  !acc
[@@indq.alloc_free "hot kernel of the flat prune sweep and anchor top-k"]

let add a b =
  check_same_dim "Vec.add" a b;
  init (dim a) (fun i -> Array1.unsafe_get a i +. Array1.unsafe_get b i)

let sub a b =
  check_same_dim "Vec.sub" a b;
  init (dim a) (fun i -> Array1.unsafe_get a i -. Array1.unsafe_get b i)

let scale c a = init (dim a) (fun i -> c *. Array1.unsafe_get a i)

let neg a = init (dim a) (fun i -> -.Array1.unsafe_get a i)

let axpy c x y =
  check_same_dim "Vec.axpy" x y;
  init (dim x) (fun i -> (c *. Array1.unsafe_get x i) +. Array1.unsafe_get y i)

let add_ip y x =
  check_same_dim "Vec.add_ip" y x;
  for i = 0 to dim y - 1 do
    Array1.unsafe_set y i (Array1.unsafe_get y i +. Array1.unsafe_get x i)
  done
[@@indq.alloc_free "in-place pivot-row update kernel"]

let axpy_ip c x y =
  check_same_dim "Vec.axpy_ip" x y;
  for i = 0 to dim x - 1 do
    Array1.unsafe_set y i
      ((c *. Array1.unsafe_get x i) +. Array1.unsafe_get y i)
  done
[@@indq.alloc_free "in-place row elimination kernel of Lp.Live pivots"]

let scale_ip c y =
  for i = 0 to dim y - 1 do
    Array1.unsafe_set y i (c *. Array1.unsafe_get y i)
  done
[@@indq.alloc_free "in-place row scaling kernel of Lp.Live pivots"]

(* Slice kernels over one flat row-major buffer: the row operations of a
   dictionary tableau address rows by offset, so a pivot needs no view
   descriptor per row.  Each validates its ranges once up front. *)
let check_slice name v ~pos ~len =
  if len < 0 || pos < 0 || pos + len > dim v then
    (invalid_arg (name ^ ": slice out of range")
    [@indq.alloc_ok "cold caller-bug path: the message concat and raise \
                     run only on a precondition violation"])
[@@indq.alloc_free "range guard shared by the slice kernels"]

let axpy_slice c x ~xpos y ~ypos ~len =
  check_slice "Vec.axpy_slice" x ~pos:xpos ~len;
  check_slice "Vec.axpy_slice" y ~pos:ypos ~len;
  for i = 0 to len - 1 do
    Array1.unsafe_set y (ypos + i)
      ((c *. Array1.unsafe_get x (xpos + i)) +. Array1.unsafe_get y (ypos + i))
  done
[@@indq.alloc_free "in-place row elimination kernel of Lp.Live pivots"]

let scale_slice c y ~pos ~len =
  check_slice "Vec.scale_slice" y ~pos ~len;
  for i = pos to pos + len - 1 do
    Array1.unsafe_set y i (c *. Array1.unsafe_get y i)
  done
[@@indq.alloc_free "in-place row scaling kernel of Lp.Live pivots"]

let blit_slice ~src ~src_pos ~dst ~dst_pos ~len =
  check_slice "Vec.blit_slice" src ~pos:src_pos ~len;
  check_slice "Vec.blit_slice" dst ~pos:dst_pos ~len;
  for i = 0 to len - 1 do
    Array1.unsafe_set dst (dst_pos + i) (Array1.unsafe_get src (src_pos + i))
  done
[@@indq.alloc_free "row-block copy of Lp.Live forks and growth"]

let norm2 a = sqrt (dot a a)

let fold_left f acc a =
  let acc = ref acc in
  for i = 0 to dim a - 1 do
    acc := f !acc (Array1.unsafe_get a i)
  done;
  !acc

let norm_inf a = fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a

let dist2 a b = norm2 (sub a b)

let normalize a =
  let n = norm2 a in
  if n < 1e-12 then invalid_arg "Vec.normalize: zero vector";
  scale (1. /. n) a

let sum a =
  let acc = ref 0. in
  for i = 0 to dim a - 1 do
    acc := !acc +. Array1.unsafe_get a i
  done;
  !acc
[@@indq.alloc_free "hot reduction: local float accumulator is unboxed"]

let max_coord a =
  if dim a = 0 then invalid_arg "Vec.max_coord: empty vector";
  fold_left Float.max (Array1.unsafe_get a 0) a

let min_coord a =
  if dim a = 0 then invalid_arg "Vec.min_coord: empty vector";
  fold_left Float.min (Array1.unsafe_get a 0) a

let argmax a =
  if dim a = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to dim a - 1 do
    if Array1.unsafe_get a i > Array1.unsafe_get a !best then best := i
  done;
  !best

let map f a = init (dim a) (fun i -> f (Array1.unsafe_get a i))

let mapi f a = init (dim a) (fun i -> f i (Array1.unsafe_get a i))

let iter f a =
  for i = 0 to dim a - 1 do
    f (Array1.unsafe_get a i)
  done

let iteri f a =
  for i = 0 to dim a - 1 do
    f i (Array1.unsafe_get a i)
  done

let for_all f a =
  let ok = ref true in
  (try
     for i = 0 to dim a - 1 do
       if not (f (Array1.unsafe_get a i)) then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let exists f a = not (for_all (fun x -> not (f x)) a)

let equal a b =
  dim a = dim b
  &&
  let ok = ref true in
  for i = 0 to dim a - 1 do
    if not (Float.equal (Array1.unsafe_get a i) (Array1.unsafe_get b i)) then
      ok := false
  done;
  !ok

let approx_equal ?tol a b =
  dim a = dim b
  && begin
       let ok = ref true in
       for i = 0 to dim a - 1 do
         if
           not
             (Indq_util.Floatx.approx_equal ?tol (Array1.unsafe_get a i)
                (Array1.unsafe_get b i))
         then ok := false
       done;
       !ok
     end

let pp ppf a =
  Format.fprintf ppf "(";
  iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%.4f" x)
    a;
  Format.fprintf ppf ")"

let to_string a = Format.asprintf "%a" pp a
