module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Store = Indq_dataset.Store
module Skyline = Indq_dominance.Skyline
module Rng = Indq_util.Rng
module Counter = Indq_obs.Counter
module Span = Indq_obs.Span

let c_hits = Counter.make "catalogue.hits"
let c_misses = Counter.make "catalogue.misses"
let c_evictions = Counter.make "catalogue.evictions"

let default_budget = 8 * 1024 * 1024

let recent_keys = 64

(* (canonical generator, seed, n, d, bits of eps) *)
type key = string * int * int * int * int64

type entry = { key : key; store : Store.t; size : int }

type t = {
  budget : int;
  table : (key, entry Lru.node) Hashtbl.t;
  lru : entry Lru.t;
  mutable bytes : int;
  recent : key option array;  (** ring of the latest missed keys *)
  mutable next_recent : int;
}

let create ?(budget = default_budget) () =
  if budget < 0 then invalid_arg "Catalogue.create: negative budget";
  {
    budget;
    table = Hashtbl.create 16;
    lru = Lru.create ();
    bytes = 0;
    recent = Array.make recent_keys None;
    next_recent = 0;
  }

let canonical name =
  match String.lowercase_ascii name with
  | ("independent" | "correlated" | "anti_correlated") as g -> Some g
  | "anti-correlated" -> Some "anti_correlated"
  | _ -> None

let store_bytes s = Store.size s * (Store.dim s + 1) * 8

let evict t node =
  let e = Lru.value node in
  Lru.unlink t.lru node;
  Hashtbl.remove t.table e.key;
  t.bytes <- t.bytes - e.size;
  Counter.incr c_evictions

let admit t key store =
  let size = store_bytes store in
  if size <= t.budget then begin
    let node = Lru.node { key; store; size } in
    Hashtbl.replace t.table key node;
    Lru.push_front t.lru node;
    t.bytes <- t.bytes + size;
    let rec shed () =
      match Lru.tail t.lru with
      | Some lru when t.bytes > t.budget ->
        evict t lru;
        shed ()
      | Some _ | None -> ()
    in
    shed ()
  end

(* Second-request admission: a key is admitted when it is still in the
   ring of recent misses, otherwise it only enters the ring. *)
let note_miss t key store =
  if Array.mem (Some key) t.recent then admit t key store
  else begin
    t.recent.(t.next_recent) <- Some key;
    t.next_recent <- (t.next_recent + 1) mod Array.length t.recent
  end

let candidates t ~generator ~seed ~n ~d ~eps =
  let generator =
    match canonical generator with
    | Some g -> g
    | None ->
      invalid_arg ("Catalogue.candidates: unknown generator " ^ generator)
  in
  let key = (generator, seed, n, d, Int64.bits_of_float eps) in
  let store =
    match Hashtbl.find_opt t.table key with
    | Some node ->
      Counter.incr c_hits;
      Lru.touch t.lru node;
      (Lru.value node).store
    | None ->
      Counter.incr c_misses;
      let store =
        Span.timed "catalogue.build" (fun () ->
            Generator.by_name generator (Rng.create seed) ~n ~d
            |> Skyline.prune_eps_dominated ~eps
            |> Dataset.store)
      in
      note_miss t key store;
      store
  in
  (Dataset.of_store store, n)

let resident t = Lru.length t.lru

let bytes t = t.bytes

let stores t =
  let rec go acc = function
    | None -> List.rev acc
    | Some node -> go ((Lru.value node).store :: acc) (Lru.next node)
  in
  go [] (Lru.head t.lru)
