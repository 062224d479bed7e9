(* Output checks on every finished session, and the workload-shape guards
   that fail a run which measured the wrong thing. *)

module Wire = Indq_server.Wire
module Engine = Indq_server.Engine
module Journal_store = Indq_server.Journal_store
module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Indist = Indq_core.Indist
module Algo = Indq_core.Algo

type outcome = {
  checked : int;  (** finished sessions checked *)
  alphas : float list;  (** Definition 3 alpha per finished session *)
  wrong : string list;  (** one message per wrong output *)
}

(* The no-false-negative promise, checked against ground truth: every
   tuple of I(f, eps) under the user's hidden utility must be in the
   served output.  Returns the session's alpha. *)
let check_done catalogues (s : Workload.session) line =
  match Wire.parse_response line with
  | Ok (Wire.R_done { output; _ }) ->
    let h = s.Workload.hello in
    let data =
      match Hashtbl.find_opt catalogues h.Wire.seed with
      | Some data -> data
      | None ->
        if Hashtbl.length catalogues >= 64 then Hashtbl.reset catalogues;
        let data = Workload.catalogue h in
        Hashtbl.replace catalogues h.Wire.seed data;
        data
    in
    let eps = (Workload.config_of h).Algo.eps in
    let ids = Hashtbl.create 64 in
    List.iter (fun (id, _) -> Hashtbl.replace ids id ()) output;
    let truth = Indist.query_exact ~eps s.Workload.user data in
    let missing =
      Array.fold_left
        (fun acc t -> if Hashtbl.mem ids (Tuple.id t) then acc else acc + 1)
        0 (Dataset.tuples truth)
    in
    if missing > 0 then
      Error
        (Printf.sprintf "session %s: %d tuple(s) of I missing from the output"
           s.Workload.id missing)
    else
      let served = Dataset.filter data (fun t -> Hashtbl.mem ids (Tuple.id t)) in
      if Dataset.size served <> List.length output then
        Error (Printf.sprintf "session %s: output names unknown tuples" s.Workload.id)
      else Ok (Indist.alpha ~eps s.Workload.user ~data ~output:served)
  | Ok _ | Error _ -> Error ("session " ^ s.Workload.id ^ ": final line is not done")

(* The final [done] line an uncapped in-process engine produces for the
   same hello and answers: eviction and rehydration must be invisible. *)
let reference_engine () =
  Engine.create
    {
      (Engine.default_config ~dir:(Serverproc.fresh_dir ())) with
      Engine.fsync = Journal_store.Never;
      max_hydrated = 1_000_000;
    }

let reference_done engine (s : Workload.session) =
  let line req =
    match Engine.handle engine req with
    | Engine.Reply r | Engine.Stop r -> Wire.response_to_line r
    | Engine.Disconnect -> "disconnect"
  in
  let first = line (Wire.Hello s.Workload.hello) in
  let final =
    List.fold_left
      (fun _ (round, choice) ->
        line (Wire.Answer { id = s.Workload.id; round; choice }))
      first (List.rev s.Workload.choices)
  in
  ignore (line (Wire.Bye { id = s.Workload.id }));
  final

(* [catalogues] maps hello seeds to catalogues already generated. *)
let outputs (w : Workload.t) ~catalogues (log : Workload.log) =
  let reference = lazy (reference_engine ()) in
  List.fold_left
    (fun acc (s : Workload.session) ->
      match s.Workload.final with
      | None -> acc
      | Some line -> (
        let acc =
          match check_done catalogues s line with
          | Ok alpha -> { acc with alphas = alpha :: acc.alphas }
          | Error msg -> { acc with wrong = msg :: acc.wrong }
        in
        let acc = { acc with checked = acc.checked + 1 } in
        match w.Workload.kind with
        | Workload.Churn_rehydrate when reference_done (Lazy.force reference) s <> line ->
          {
            acc with
            wrong =
              ("session " ^ s.Workload.id
             ^ ": final done differs from the uncapped in-process run")
              :: acc.wrong;
          }
        | _ -> acc))
    { checked = 0; alphas = []; wrong = [] }
    (List.rev log.Workload.finished)

(* Workload-shape guards over the server's own counters (the wire [stats]
   reply).  Each returns the violated condition, if any. *)
let guards (w : Workload.t) ~counters ~answered ~created ~finished =
  let get name = Option.value ~default:0. (List.assoc_opt name counters) in
  let hydrations = get "serve.hydrations"
  and pivots = get "lp.dual_pivots"
  and records = get "journal.records"
  and syncs = get "serve.journal_syncs" in
  let answered = float_of_int answered in
  let require ok msg = if ok then [] else [ msg ] in
  require (answered > 0.) "no round was answered"
  @ require (finished > 0) "no session finished, so no output was checked"
  @
  match w.Workload.kind with
  | Workload.Churn_rehydrate ->
    require (hydrations >= answered)
      (Printf.sprintf "serve.hydrations %g < answered rounds %g" hydrations answered)
    @ require (pivots = 0.) (Printf.sprintf "lp.dual_pivots %g <> 0" pivots)
  | Workload.Lp_interview ->
    require (pivots > 0.) "lp.dual_pivots = 0"
    @ require (hydrations = 0.) (Printf.sprintf "serve.hydrations %g <> 0" hydrations)
  | Workload.Light_journal ->
    require (records >= answered)
      (Printf.sprintf "journal.records %g < answers %g" records answered)
    @ require
        (syncs >= float_of_int created)
        (Printf.sprintf "serve.journal_syncs %g < sessions %d" syncs created)
