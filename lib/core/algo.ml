module Dataset = Indq_dataset.Dataset
module Timer = Indq_util.Timer
module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Trace = Indq_obs.Trace

type name = Squeeze_u | Uh_random | MinD | MinR

type config = {
  s : int;
  q : int;
  eps : float;
  delta : float;
  trials : int;
  exact_prune : bool;
}

type run_result = {
  output : Dataset.t;
  questions_used : int;
  seconds : float;
  metrics : (string * float) list;
  hists : (string * Histogram.snap) list;
}

let default_config ~d =
  {
    s = max 2 d;
    q = 3 * d;
    eps = 0.05;
    delta = 0.;
    trials = 10;
    exact_prune = false;
  }

let all = [ Squeeze_u; Uh_random; MinD; MinR ]

let to_string = function
  | Squeeze_u -> "Squeeze-u"
  | Uh_random -> "UH-Random"
  | MinD -> "MinD"
  | MinR -> "MinR"

let of_string s =
  match String.lowercase_ascii s with
  | "squeeze-u" | "squeeze_u" | "squeezeu" -> Squeeze_u
  | "uh-random" | "uh_random" | "uhrandom" -> Uh_random
  | "mind" -> MinD
  | "minr" -> MinR
  | other -> invalid_arg ("Algo.of_string: unknown algorithm " ^ other)

let run_traced ?source_n name config ~data ~oracle ~rng =
  let { s; q; eps; delta; trials; exact_prune } = config in
  Trace.emit_with (fun () ->
      Trace.Run_started
        {
          algo = to_string name;
          n = Option.value source_n ~default:(Dataset.size data);
          d = Dataset.dim data;
          s;
          q;
          eps;
          delta;
        });
  let before = Counter.snapshot () in
  let before_h = Histogram.snapshot () in
  let execute () =
    match name with
    | Squeeze_u ->
      if delta > 0. then begin
        let r =
          Squeeze_u2.run ~exact_prune ?source_n ~data ~s ~q ~eps ~delta
            ~oracle ()
        in
        (r.Squeeze_u2.output, r.Squeeze_u2.questions_used)
      end
      else begin
        let r =
          Squeeze_u.run ~exact_prune ?source_n ~data ~s ~q ~eps ~oracle ()
        in
        (r.Squeeze_u.output, r.Squeeze_u.questions_used)
      end
    | Uh_random ->
      let r =
        Real_points.uh_random ~delta ?source_n ~data ~s ~q ~eps ~oracle ~rng ()
      in
      (r.Real_points.output, r.Real_points.questions_used)
    | MinD ->
      let r =
        Real_points.run ~delta ~trials ?source_n Real_points.MinD ~data ~s ~q
          ~eps ~oracle ~rng
      in
      (r.Real_points.output, r.Real_points.questions_used)
    | MinR ->
      let r =
        Real_points.run ~delta ~trials ?source_n Real_points.MinR ~data ~s ~q
          ~eps ~oracle ~rng
      in
      (r.Real_points.output, r.Real_points.questions_used)
  in
  let (output, questions_used), seconds = Timer.time execute in
  let metrics = Counter.since before in
  let hists = Histogram.since before_h in
  Trace.emit_with (fun () ->
      Trace.Run_finished
        { questions = questions_used; output = Dataset.size output; seconds });
  { output; questions_used; seconds; metrics; hists }

let run ?trace ?source_n name config ~data ~oracle ~rng =
  match trace with
  | None -> run_traced ?source_n name config ~data ~oracle ~rng
  | Some sink ->
    Trace.with_sink sink (fun () ->
        run_traced ?source_n name config ~data ~oracle ~rng)
