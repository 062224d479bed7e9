(* Two drivers for the same per-connection scripts: the socket load
   generator (one process, closed-loop connections multiplexed with
   [select], zero think time) and the in-process replay that feeds the
   identical request stream straight into an [Engine]. *)

module Wire = Indq_server.Wire
module Engine = Indq_server.Engine
module Counter = Indq_obs.Counter

type socket_run = {
  log : Workload.log;
  attempted : int;  (** requests sent *)
  answered : int;  (** [answer]s that got a question or [done], warm-up included *)
  sent : int array;  (** requests completed per connection *)
  starts : float list;  (** seconds, [hello] to first question *)
  rounds : float list;  (** seconds, [answer] to next [ask]/[done] *)
  asks : float list;  (** seconds, [ask] round trips *)
  wall : float;  (** seconds, end of the warm-up to the last reply *)
  failures : string list;  (** error replies, timeouts, bad bytes *)
  resident : string option;  (** a session whose last reply was a question *)
}

(* A growable sample of seconds.  Flat float storage keeps the load
   generator's own heap small and pointer-free while it times hundreds of
   thousands of sub-millisecond rounds, so its GC does not land inside the
   rounds it times. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let data = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 data 0 s.len;
    s.data <- data
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_list s = Array.to_list (Array.sub s.data 0 s.len)

(* The first [warmup] seconds run the same closed loop but record no
   timing: the server's first hellos, its heap growth and the first fill
   of its LRU are not the steady state the [seconds] that follow measure.
   Replies are checked either way. *)
let socket (w : Workload.t) ~sock ~warmup ~seconds ~timeout =
  let log = Workload.new_log () in
  let n = Workload.conns in
  let scripts = Array.init n (Workload.conn w) in
  let links = Array.init n (fun _ -> Serverproc.connect sock) in
  let inflight = Array.make n None in
  let sent = Array.make n 0 in
  let active = Array.make n true in
  let starts = samples () and rounds = samples () and asks = samples () in
  let failures = ref [] and resident = ref None in
  let fail msg = failures := msg :: !failures in
  let attempted = ref 0 and answered = ref 0 in
  let issue i =
    incr attempted;
    let r = Workload.next w log scripts.(i) in
    inflight.(i) <- Some (r, Clock.now ());
    Serverproc.send links.(i) (Wire.request_to_line r.Workload.req)
  in
  let t0 = Clock.now () +. warmup in
  let deadline = t0 +. seconds in
  let last = ref t0 in
  let complete i line =
    let now = Clock.now () in
    last := now;
    sent.(i) <- sent.(i) + 1;
    (match inflight.(i) with
    | None -> fail "reply without a request"
    | Some (r, t_sent) -> (
      inflight.(i) <- None;
      match Wire.parse_response line with
      | Error msg -> fail ("undecodable reply: " ^ msg)
      | Ok resp -> (
        (match (resp, r.Workload.op) with
        | (Wire.R_ask _ | Wire.R_done _), Workload.Answer -> incr answered
        | _ -> ());
        (match resp with
        | Wire.R_error _ -> ()
        | _ when t_sent < t0 -> ()
        | _ -> (
          let dt = now -. t_sent in
          match r.Workload.op with
          | Workload.Hello -> push starts dt
          | Workload.Answer -> push rounds dt
          | Workload.Ask -> push asks dt
          | Workload.Bye -> ()));
        (match resp with
        | Wire.R_ask { id; _ } -> resident := Some id
        | Wire.R_done { id; _ } when !resident = Some id -> resident := None
        | _ -> ());
        match Workload.on_reply w log scripts.(i) r line resp with
        | Ok () -> ()
        | Error msg -> fail msg)));
    if now < deadline then issue i else active.(i) <- false
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Serverproc.close links)
    (fun () ->
      Array.iteri (fun i _ -> issue i) links;
      let rec loop () =
        let fds =
          List.filter_map
            (fun i -> if active.(i) then Some links.(i).Serverproc.fd else None)
            (List.init n Fun.id)
        in
        if fds <> [] then begin
          (match Unix.select fds [] [] timeout with
          | [], _, _ ->
            fail "timeout: no reply within the per-read timeout";
            Array.fill active 0 n false
          | ready, _, _ ->
            Array.iteri
              (fun i link ->
                if active.(i) && List.memq link.Serverproc.fd ready then begin
                  (match Serverproc.fill link with
                  | () -> ()
                  | exception (End_of_file | Unix.Unix_error _) ->
                    fail "server closed the connection";
                    active.(i) <- false);
                  let rec drain () =
                    if active.(i) then
                      match Serverproc.take_line link with
                      | Some line ->
                        complete i line;
                        drain ()
                      | None -> ()
                  in
                  drain ()
                end)
              links
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
      in
      loop ());
  {
    log;
    attempted = !attempted;
    answered = !answered;
    sent;
    starts = to_list starts;
    rounds = to_list rounds;
    asks = to_list asks;
    wall = Float.max 0. (!last -. t0);
    failures = List.rev !failures;
    resident = !resident;
  }

(* --- In-process replay ----------------------------------------------------- *)

type call = {
  op : Workload.op;
  dt : float;  (** seconds inside [Engine.handle] *)
  hydrated : bool;  (** [serve.hydrations] advanced during the call *)
  req : Wire.request;
  resp : Wire.response;
}

let c_hydrations = Counter.make "serve.hydrations"

(* Replay [limit.(i)] requests on connection [i], round-robin across
   connections, through [Engine.handle], stopping early once [budget]
   seconds have passed.  Returns the requests replayed per connection, the
   script log and every call in order. *)
let inproc ?(budget = infinity) (w : Workload.t) engine ~limit =
  let stop = Clock.now () +. budget in
  let log = Workload.new_log () in
  let scripts = Array.init Workload.conns (Workload.conn w) in
  let sent = Array.make Workload.conns 0 in
  let calls = ref [] in
  let pending () =
    Array.exists2 (fun s l -> s < l) sent limit && Clock.now () < stop
  in
  while pending () do
    Array.iteri
      (fun i script ->
        if sent.(i) < limit.(i) then begin
          sent.(i) <- sent.(i) + 1;
          let r = Workload.next w log script in
          let before = Counter.value c_hydrations in
          let out, dt = Clock.time (fun () -> Engine.handle engine r.Workload.req) in
          let hydrated = Counter.value c_hydrations > before in
          let resp =
            match out with
            | Engine.Reply resp | Engine.Stop resp -> resp
            | Engine.Disconnect -> failwith "in-process engine dropped a reply"
          in
          calls :=
            { op = r.Workload.op; dt; hydrated; req = r.Workload.req; resp }
            :: !calls;
          match
            Workload.on_reply w log script r (Wire.response_to_line resp) resp
          with
          | Ok () -> ()
          | Error msg -> failwith ("in-process replay: " ^ msg)
        end)
      scripts
  done;
  (sent, log, List.rev !calls)
