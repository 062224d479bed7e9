module Counter = Indq_obs.Counter
module Rng = Indq_util.Rng

let c_injected = Counter.make "fault.injected"

type trigger = Never | Once of int | Every of int | After of int | Always

type plan = { seed : int; arms : (string * trigger) list }

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "Indq_fault.Fault.Injected(%s)" site)
    | _ -> None)

let sites =
  [
    ("inject.client_disconnect",
     "the session server drops a client connection instead of delivering a \
      response");
    ("inject.dataset_load", "Dataset.of_csv fails as if the source were unreadable");
    ("inject.journal_sync",
     "a session-journal fsync fails as if the device returned EIO");
    ("inject.journal_torn_write",
     "a session-journal append is torn mid-record, as if the process died \
      mid-write");
    ("inject.lp_iteration_cap",
     "the primary pivot budget of an Lp.Live optimize or add_cut run \
      collapses to zero");
    ("inject.lp_nan_pivot",
     "a non-finite value is planted in the tableau Lp.Live.create builds");
    ("inject.oracle_contradiction", "the simulated user picks the worst option");
    ("inject.worker_death", "a Pool.parallel_map chunk dies before computing");
  ]

let site_names = List.map fst sites

let site_description name =
  match List.assoc_opt name sites with
  | Some d -> d
  | None -> invalid_arg ("Fault.site_description: unknown site " ^ name)

let none = { seed = 0; arms = [] }

let plan ?(seed = 0) arms =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name sites) then
        invalid_arg ("Fault.plan: unknown site " ^ name))
    arms;
  { seed; arms = List.sort (fun (a, _) (b, _) -> String.compare a b) arms }

let random_plan ~seed =
  let rng = Rng.create seed in
  { seed; arms = List.map (fun name -> (name, Once (1 + Rng.int rng 4))) site_names }

(* The installed plan plus per-site reach/injection counts, per domain. *)
type active = {
  active_plan : plan;
  reaches : (string, int ref) Hashtbl.t;
  injected : (string, int ref) Hashtbl.t;
}

let state_key : active option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () = Domain.DLS.get state_key

let armed () = Option.is_some !(state ())

let current () = Option.map (fun a -> a.active_plan) !(state ())

let with_plan p f =
  let r = state () in
  let prev = !r in
  r :=
    Some
      { active_plan = p; reaches = Hashtbl.create 8; injected = Hashtbl.create 8 };
  Fun.protect ~finally:(fun () -> r := prev) f

let with_plan_opt p f = match p with None -> f () | Some p -> with_plan p f

let bump tbl site =
  match Hashtbl.find_opt tbl site with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.replace tbl site (ref 1);
    1

let matches trigger reach =
  match trigger with
  | Never -> false
  | Always -> true
  | Once k -> reach = k
  | Every k -> k > 0 && reach mod k = 0
  | After k -> reach > k

let fire site =
  match !(state ()) with
  | None -> false
  | Some a ->
    if not (List.mem_assoc site sites) then
      invalid_arg ("Fault.fire: unknown site " ^ site);
    (match List.assoc_opt site a.active_plan.arms with
    | None -> false
    | Some trigger ->
      let reach = bump a.reaches site in
      if matches trigger reach then begin
        ignore (bump a.injected site);
        Counter.incr c_injected;
        true
      end
      else false)

let scheduled site ~index ~attempt =
  match !(state ()) with
  | None -> false
  | Some a ->
    if not (List.mem_assoc site sites) then
      invalid_arg ("Fault.scheduled: unknown site " ^ site);
    (match List.assoc_opt site a.active_plan.arms with
    | None -> false
    | Some Always -> true
    | Some trigger -> attempt = 0 && matches trigger (index + 1))

let injections site =
  match !(state ()) with
  | None -> 0
  | Some a ->
    (match Hashtbl.find_opt a.injected site with Some r -> !r | None -> 0)
