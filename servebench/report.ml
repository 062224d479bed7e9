(* Sample statistics and the report lines.  The last line of standard
   output is the result object: [correct], [attempted], [failed] and the
   named metrics with their units. *)

module Stats = Indq_util.Stats
module Wire = Indq_server.Wire

(* [quantile p xs] for [p] in [0, 1], linearly interpolated; 0 on an
   empty sample (every caller reports the sample count beside it). *)
let quantile p xs =
  match xs with [] -> 0. | _ -> Stats.percentile (Array.of_list xs) (100. *. p)

let median xs = quantile 0.5 xs

let mean xs = Stats.mean (Array.of_list xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* [ratio a b] is [a / b], 0 when [b] is 0. *)
let ratio a b = if b = 0. then 0. else a /. b

let ms xs = List.map (fun s -> s *. 1e3) xs

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Report lines are JSON printed by the wire codec ([%.17g] floats).  A
   non-finite value can only come from an empty sample and prints as 0. *)
let num v = Wire.Num (if Float.is_finite v then v else 0.)

let int n = Wire.Num (float_of_int n)

let result_line ~correct ~attempted ~failed metrics =
  Wire.print_json
    (Wire.Obj
       [
         ("correct", Wire.Bool correct);
         ("attempted", int attempted);
         ("failed", int failed);
         ( "metrics",
           Wire.Obj
             (List.map
                (fun m ->
                  (m.name, Wire.Obj [ ("value", num m.value); ("unit", Wire.Str m.unit_) ]))
                metrics) );
       ])
