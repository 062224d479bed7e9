(* Offline trace profiler: replay a stream of {!Trace} events (usually the
   span_started/span_finished lines of a JSONL trace file) into the span
   tree, attribute self time per phase, and export flamegraph.pl
   folded-stack and speedscope JSON renderings.  Pure — no clocks, no
   domain state: the same event list always produces byte-identical
   reports. *)

type node = {
  node_id : int;
  node_name : string;
  n_start : float;  (* seconds since the trace's first span event *)
  n_stop : float;
  n_children : node list;  (* in start order *)
}

type phase = {
  phase_name : string;
  calls : int;
  total : float;  (* Σ (stop - start) over this phase's nodes *)
  self : float;  (* total minus time attributed to child spans *)
}

type t = { roots : node list; phases : phase list; total : float }

(* --- tree reconstruction ------------------------------------------------ *)

type builder = {
  b_id : int;
  b_name : string;
  b_start : float;
  mutable b_stop : float option;
  mutable b_children : builder list;  (* reversed *)
}

let of_events events =
  let by_id : (int, builder) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  let t0 = ref Float.infinity in
  let t_max = ref Float.neg_infinity in
  let see at =
    if at < !t0 then t0 := at;
    if at > !t_max then t_max := at
  in
  List.iter
    (fun ev ->
      match (ev : Trace.event) with
      | Trace.Span_started { id; parent; name; at } ->
        see at;
        let b =
          { b_id = id; b_name = name; b_start = at; b_stop = None;
            b_children = [] }
        in
        (match Hashtbl.find_opt by_id parent with
        | Some p -> p.b_children <- b :: p.b_children
        | None -> roots := b :: !roots);
        Hashtbl.replace by_id id b
      | Trace.Span_finished { id; at } -> (
        see at;
        match Hashtbl.find_opt by_id id with
        | Some b -> b.b_stop <- Some at
        | None -> ())
      | _ -> ())
    events;
  let t0 = if Float.is_finite !t0 then !t0 else 0. in
  let t_max = if Float.is_finite !t_max then !t_max else 0. in
  (* Builders are frozen by walking from the roots (never by iterating the
     id table, whose order is not deterministic).  A span with no finish
     event — a truncated trace — is closed at the last timestamp seen. *)
  let rec freeze b =
    let stop = match b.b_stop with Some s -> s | None -> t_max in
    {
      node_id = b.b_id;
      node_name = b.b_name;
      n_start = b.b_start -. t0;
      n_stop = Float.max 0. (stop -. t0);
      (* [b_children] is built reversed, so [rev_map] restores start
         order. *)
      n_children = List.rev_map freeze b.b_children;
    }
  in
  let roots = List.rev_map freeze !roots in
  let node_total n = n.n_stop -. n.n_start in
  let node_self n =
    node_total n
    -. List.fold_left (fun acc c -> acc +. node_total c) 0. n.n_children
  in
  (* Per-phase aggregation: (name, calls, total, self), sorted by name. *)
  let acc : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let names = ref [] in
  let rec tally n =
    (match Hashtbl.find_opt acc n.node_name with
    | Some (c, tot, slf) ->
      incr c;
      tot := !tot +. node_total n;
      slf := !slf +. node_self n
    | None ->
      Hashtbl.replace acc n.node_name
        (ref 1, ref (node_total n), ref (node_self n));
      names := n.node_name :: !names);
    List.iter tally n.n_children
  in
  List.iter tally roots;
  let phases =
    List.rev_map
      (fun name ->
        let c, tot, slf = Hashtbl.find acc name in
        { phase_name = name; calls = !c; total = !tot; self = !slf })
      !names
    |> List.sort (fun a b -> String.compare a.phase_name b.phase_name)
  in
  let total = List.fold_left (fun s n -> s +. node_total n) 0. roots in
  { roots; phases; total }

let of_lines lines = of_events (List.filter_map Trace.of_json_line lines)

let node_self n =
  n.n_stop -. n.n_start
  -. List.fold_left (fun acc c -> acc +. (c.n_stop -. c.n_start)) 0. n.n_children

(* --- folded stacks (flamegraph.pl) -------------------------------------- *)

(* One line per distinct stack, "a;b;c <weight>", weight = self time in
   integer microseconds, lines sorted lexicographically. *)
let folded t =
  let rows = ref [] in
  let rec go prefix n =
    let path =
      if prefix = "" then n.node_name else prefix ^ ";" ^ n.node_name
    in
    rows := (path, node_self n) :: !rows;
    List.iter (go path) n.n_children
  in
  List.iter (go "") t.roots;
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
  in
  let rec squash = function
    | (p1, s1) :: (p2, s2) :: rest when String.equal p1 p2 ->
      squash ((p1, s1 +. s2) :: rest)
    | row :: rest -> row :: squash rest
    | [] -> []
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, self) ->
      let us = int_of_float (Float.round (self *. 1e6)) in
      Buffer.add_string buf (Printf.sprintf "%s %d\n" path us))
    (squash sorted);
  Buffer.contents buf

(* --- speedscope ---------------------------------------------------------- *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* The "evented" speedscope format: a shared frame table plus a single
   profile of open/close events in timestamp order (the tree walk emits
   them properly nested). *)
let speedscope ?(name = "indq trace") t =
  let frames = ref [] in
  let frame_count = ref 0 in
  let frame_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let index_of fname =
    match Hashtbl.find_opt frame_index fname with
    | Some i -> i
    | None ->
      let i = !frame_count in
      incr frame_count;
      Hashtbl.replace frame_index fname i;
      frames := fname :: !frames;
      i
  in
  let events = Buffer.create 256 in
  let first = ref true in
  let emit kind frame at =
    if not !first then Buffer.add_char events ',';
    first := false;
    Buffer.add_string events
      (Printf.sprintf {|{"type":"%s","frame":%d,"at":%s}|} kind frame
         (json_float at))
  in
  let rec go n =
    let i = index_of n.node_name in
    emit "O" i n.n_start;
    List.iter go n.n_children;
    emit "C" i n.n_stop
  in
  List.iter go t.roots;
  let frames_json =
    String.concat ","
      (List.rev_map
         (fun f -> Printf.sprintf {|{"name":"%s"}|} (Trace.escape f))
         !frames)
  in
  (* Not [t.total]: root spans may have gaps between them, and speedscope
     requires endValue >= every event timestamp. *)
  let end_value =
    List.fold_left (fun acc n -> Float.max acc n.n_stop) 0. t.roots
  in
  Printf.sprintf
    {|{"$schema":"https://www.speedscope.app/file-format-schema.json","shared":{"frames":[%s]},"profiles":[{"type":"evented","name":"%s","unit":"seconds","startValue":0,"endValue":%s,"events":[%s]}],"exporter":"indq profile","name":"%s"}|}
    frames_json (Trace.escape name) (json_float end_value)
    (Buffer.contents events) (Trace.escape name)

(* --- phase catalog ------------------------------------------------------- *)

(* [phase] marks a known span/phase name with its one-line description;
   indq-lint collects the names (IND006) and cross-checks them against the
   docs exactly like Counter.make/Span.timed/Histogram.make sites. *)
let phase name ~doc = (name, doc)

let catalog =
  [
    phase "baselines.greedy_regret_set" ~doc:"greedy k-regret seeding pass";
    phase "catalogue.build" ~doc:"serve: catalogue + skyline on a table miss";
    phase "real_points.lemma2_prune" ~doc:"Lemma 2 utility-bound pruning";
    phase "real_points.observe" ~doc:"feasible-region cut per answer";
    phase "real_points.pick_display" ~doc:"display-set selection per round";
    phase "real_points.skyline" ~doc:"skyline prefilter (RealPoints)";
    phase "session.replay" ~doc:"journal replay on session resume";
    phase "squeeze_u.box_prune" ~doc:"terminal box-pruning pass";
    phase "squeeze_u.ladder" ~doc:"utility-ladder construction";
    phase "squeeze_u.phase1" ~doc:"phase-1 interval shrinking rounds";
    phase "squeeze_u.skyline" ~doc:"skyline prefilter (Squeeze-u)";
    phase "squeeze_u2.box_prune" ~doc:"terminal box-pruning pass (2-d)";
    phase "squeeze_u2.ladder" ~doc:"utility-ladder construction (2-d)";
    phase "squeeze_u2.phase1" ~doc:"phase-1 interval shrinking rounds (2-d)";
    phase "squeeze_u2.skyline" ~doc:"skyline prefilter (Squeeze-u2)";
  ]

let phase_doc name = List.assoc_opt name catalog
