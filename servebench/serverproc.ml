(* Lifecycle of the child [indq serve] processes and of the run's scratch
   directory.  Every child is registered on spawn and killed and reaped
   on every exit path — normal return, exception, or a termination
   signal — so a run can neither hang on nor leak a server. *)

let live : int list ref = ref []

let scratch_dirs : string list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* Wait up to [grace] seconds for [pid] to exit, then SIGKILL it; always
   reaps. *)
let stop ?(grace = 5.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let scratch_root = ".servebench-tmp"

let cleanup () =
  List.iter (fun pid -> stop ~grace:1. pid) !live;
  List.iter remove_tree !scratch_dirs;
  scratch_dirs := [];
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let () =
  at_exit cleanup;
  let on_signal _ = exit 3 in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* A fresh directory under [.servebench-tmp/] in the working directory.
   Paths stay relative and short: a Unix socket path must fit in 108
   bytes wherever the checkout lives. *)
let fresh_dir () =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rec attempt i =
    let dir = Filename.concat scratch_root (Printf.sprintf "%d-%d" (Unix.getpid ()) i) in
    match Unix.mkdir dir 0o700 with
    | () ->
      scratch_dirs := dir :: !scratch_dirs;
      dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (i + 1)
  in
  attempt 0

(* --- Connections ---------------------------------------------------------- *)

exception Timeout of string

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let rec write_all fd bytes off len =
  if len > 0 then
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)

let send c line =
  let bytes = Bytes.of_string (line ^ "\n") in
  write_all c.fd bytes 0 (Bytes.length bytes)

(* Pop one complete line from the connection buffer, if any. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some nl ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (nl + 1) (String.length s - nl - 1));
    Some (String.sub s 0 nl)

let chunk = Bytes.create 65536

(* Read what is available; raises [End_of_file] when the server hung up. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise End_of_file
  | n -> Buffer.add_subbytes c.buf chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Block for one reply line, at most [timeout] seconds per read. *)
let rec recv c ~timeout =
  match take_line c with
  | Some line -> line
  | None -> (
    match Unix.select [ c.fd ] [] [] timeout with
    | [], _, _ -> raise (Timeout "no reply within the per-read timeout")
    | _ ->
      fill c;
      recv c ~timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv c ~timeout)

let rpc c ~timeout line =
  send c line;
  recv c ~timeout

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let try_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let connect sock =
  match try_connect sock with
  | Some c -> c
  | None -> failwith ("cannot connect to " ^ sock)

(* --- Server processes ----------------------------------------------------- *)

type server = { pid : int; sock : string }

(* Launch [indq serve] on a fresh socket and journal directory and block
   until it answers a [stats] request.  Returns the server and the
   seconds from launch to that first reply. *)
let launch ~indq ~timeout (w : Workload.t) =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "s.sock" in
  let journals = Filename.concat dir "journals" in
  let args =
    [|
      indq; "serve"; "--socket"; sock; "--dir"; journals; "--fsync"; w.fsync;
      "--max-hydrated"; string_of_int w.max_hydrated;
    |]
  in
  let t0 = Clock.now () in
  (* The child's stdout goes to our stderr: our stdout is the report. *)
  let pid = Unix.create_process indq args Unix.stdin Unix.stderr Unix.stderr in
  live := pid :: !live;
  let server = { pid; sock } in
  let rec ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live := List.filter (fun p -> p <> pid) !live;
      failwith "indq serve exited during start-up");
    match try_connect sock with
    | Some c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          ignore
            (rpc c ~timeout (Indq_server.Wire.request_to_line Indq_server.Wire.Stats)))
    | None ->
      if Clock.now () -. t0 > timeout then raise (Timeout "server start-up");
      Unix.sleepf 0.0001;
      ready ()
  in
  ready ();
  (server, Clock.now () -. t0)

(* The server's peak resident set ([VmHWM]) in MiB, read while it runs. *)
let peak_rss_mb server =
  let ic = open_in (Printf.sprintf "/proc/%d/status" server.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* Machine-wide CPU tick counters [(steal, total)] from [/proc/stat]: the
   share of time the hypervisor withheld the CPUs explains runs that are
   slow for reasons outside the program. *)
let cpu_ticks () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      let steal = match List.nth_opt v 7 with Some x -> x | None -> 0. in
      (steal, List.fold_left ( +. ) 0. v)
    | _ -> (0., 0.))
  | None -> (0., 0.)
  | exception Sys_error _ -> (0., 0.)
