(* Monotonic nanosecond clock for the benchmark's own timings: the
   microsecond-resolution wall clock is too coarse for codec calls that
   take a few microseconds, and a wall clock can step. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] is [(f (), elapsed seconds)]. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
