type 'a node = {
  value : 'a;
  mutable prev : 'a node option;  (** toward the head *)
  mutable next : 'a node option;  (** toward the tail *)
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable length : int;
}

let create () = { head = None; tail = None; length = 0 }

let node value = { value; prev = None; next = None }

let value n = n.value

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  t.length <- t.length - 1

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n;
  t.length <- t.length + 1

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | Some _ | None ->
    unlink t n;
    push_front t n

let head t = t.head

let tail t = t.tail

let next n = n.next

let length t = t.length
