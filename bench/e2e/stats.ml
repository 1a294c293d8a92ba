(* Order statistics for benchmark samples. *)

(* Linear-interpolation quantile of a sample (the "inclusive" method):
   [quantile xs 0.5] is the median.  Infinite samples (failed requests)
   sort last and propagate into the quantiles they reach. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.round (floor h)) in
    let hi = min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    if frac = 0.0 || a.(hi) = a.(lo) then a.(lo)
    else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A reported metric: its value, the quartiles of the samples it came
   from, and how many samples there were. *)
type summary = { value : float; q1 : float; q3 : float; n : int }

(* Median and quartiles of per-iteration samples. *)
let summarize xs =
  { value = median xs; q1 = quantile xs 0.25; q3 = quantile xs 0.75;
    n = List.length xs }

(* A percentile of pooled samples, with the quartiles of the same
   percentile taken per group (iteration or time window) as its
   spread. *)
let pooled ~p groups =
  let per_group = List.filter_map
      (fun g -> if g = [] then None else Some (quantile g p)) groups in
  let all = List.concat groups in
  { value = quantile all p; q1 = quantile per_group 0.25;
    q3 = quantile per_group 0.75; n = List.length all }

(* A percentile over operations of each operation's median across
   iterations ([iters] lists the same operations in the same order):
   one slow iteration of a short operation does not move it.  The
   quartiles are those of the same percentile taken per iteration. *)
let per_op ~p iters =
  let rows = Array.of_list (List.map Array.of_list iters) in
  let ops = Array.fold_left (fun m a -> min m (Array.length a)) max_int rows in
  let medians =
    List.init ops (fun i -> median (Array.to_list (Array.map (fun a -> a.(i)) rows)))
  in
  let per_iter = List.map (fun g -> quantile g p) iters in
  { value = quantile medians p; q1 = quantile per_iter 0.25;
    q3 = quantile per_iter 0.75; n = List.length (List.concat iters) }

let single v = { value = v; q1 = v; q3 = v; n = 1 }

let map f s = { s with value = f s.value; q1 = f s.q1; q3 = f s.q3 }

(* Interquartile range as a share of the median. *)
let spread s =
  if s.value = 0.0 then 0.0 else Float.abs (s.q3 -. s.q1) /. Float.abs s.value

(* A JSON number, NaN for anything else (a non-finite value prints as
   null). *)
let number = function
  | Some (Hwpat_serve.Json.Float f) -> f
  | Some (Hwpat_serve.Json.Int i) -> float_of_int i
  | _ -> nan

let to_json s =
  Hwpat_serve.Json.Obj
    [
      ("value", Float s.value);
      ("q1", Float s.q1);
      ("q3", Float s.q3);
      ("n", Int s.n);
    ]

let of_json j =
  let get k = number (Hwpat_serve.Json.member k j) in
  { value = get "value"; q1 = get "q1"; q3 = get "q3";
    n = Hwpat_serve.Json.get_int j "n" ~default:0 }
