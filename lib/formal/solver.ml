(* CDCL SAT solver: two-watched-literal propagation, first-UIP clause
   learning, VSIDS-style activity order, phase saving, geometric
   restarts. Clauses are int arrays whose first two slots are the
   watched literals; a reason clause always has its implied literal in
   slot 0. *)

type lit = int
type result = Sat | Unsat | Unknown

type budget = { max_conflicts : int; max_propagations : int }

let no_budget = { max_conflicts = 0; max_propagations = 0 }

(* Search strategy. Restart pacing and activity decay are exact
   arithmetic on operation counts (no wall clock), so the same instance
   replays the same search in every run. *)
let restart_base = 100 (* conflicts before the first restart *)
let restart_factor = 1.5 (* geometric growth of the restart interval *)
let decay = 0.95 (* VSIDS activity decay (var bump divisor) *)
let init_phase = false (* initial saved phase of every variable *)

type clause = int array

(* Growable clause list (a watch list). *)
module Cvec = struct
  type t = { mutable data : clause array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push v c =
    if v.size = Array.length v.data then begin
      let d = Array.make (max 4 (2 * v.size)) c in
      Array.blit v.data 0 d 0 v.size;
      v.data <- d
    end;
    v.data.(v.size) <- c;
    v.size <- v.size + 1
end

type t = {
  mutable scopes : int list; (* activation vars of open scopes, innermost first *)
  mutable n_vars : int;
  mutable cap : int; (* current capacity of the per-var arrays *)
  mutable assigns : int array; (* var -> 0 unknown / 1 true / -1 false *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array; (* analyze scratch *)
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> heap slot, -1 if absent *)
  mutable watches : Cvec.t array; (* indexed by literal *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail size at the start of each level *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable n_clauses : int;
  mutable conflicts_total : int;
  mutable decisions_total : int;
  mutable propagations_total : int;
  mutable restarts_total : int;
  mutable unknowns_total : int;
  mutable learned_total : int;
  mutable learned_literals : int;
  learned_size_buckets : int array;
      (* log2 buckets: index 0 for sizes <= 0 (never hit by learned
         clauses, which have >= 1 literal), else floor(log2 n) + 1,
         clamped into the last of [n_size_buckets] — exactly the
         Metrics.bucket_of convention (same bucket count, same clamp),
         kept here without depending on that library so obs histograms
         from the solver and the sim hot paths line up bucket for
         bucket *)
  mutable unsat : bool;
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let lit_value s l =
  let v = s.assigns.(abs l) in
  if v = 0 then 0 else if l > 0 then v else -v

(* --- Variable order ------------------------------------------------------ *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    sift_down s 0
  end;
  v

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 1 to s.n_vars do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

(* --- Setup --------------------------------------------------------------- *)

let grow s =
  let cap = 2 * s.cap in
  let copy_int a = Array.init (cap + 1) (fun i -> if i <= s.cap then a.(i) else 0) in
  s.assigns <- copy_int s.assigns;
  s.level <- copy_int s.level;
  s.heap_pos <-
    Array.init (cap + 1) (fun i -> if i <= s.cap then s.heap_pos.(i) else -1);
  s.reason <-
    Array.init (cap + 1) (fun i -> if i <= s.cap then s.reason.(i) else None);
  s.activity <-
    Array.init (cap + 1) (fun i -> if i <= s.cap then s.activity.(i) else 0.);
  s.polarity <-
    Array.init (cap + 1) (fun i ->
        if i <= s.cap then s.polarity.(i) else init_phase);
  s.seen <- Array.make (cap + 1) false;
  s.heap <- copy_int s.heap;
  s.trail <- copy_int s.trail;
  s.trail_lim <- Array.init (2 * (cap + 1)) (fun i ->
      if i < Array.length s.trail_lim then s.trail_lim.(i) else 0);
  s.watches <-
    Array.init (2 * (cap + 1)) (fun i ->
        if i < Array.length s.watches then s.watches.(i) else Cvec.create ());
  s.cap <- cap

let new_var s =
  if s.n_vars = s.cap then grow s;
  s.n_vars <- s.n_vars + 1;
  let v = s.n_vars in
  heap_insert s v;
  v

(* --- Assignment and backtracking ---------------------------------------- *)

let enqueue s l reason =
  let v = abs l in
  s.assigns.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.polarity.(v) <- l > 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_level s =
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = abs s.trail.(i) in
      s.assigns.(v) <- 0;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_levels <- lvl
  end

(* --- Propagation --------------------------------------------------------- *)

let attach s c =
  Cvec.push s.watches.(lit_index (-c.(0))) c;
  Cvec.push s.watches.(lit_index (-c.(1))) c

let propagate s =
  let confl = ref None in
  while !confl = None && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* Clauses in which [-p], now false, is watched. *)
    let wl = s.watches.(lit_index p) in
    let n = wl.Cvec.size in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = wl.Cvec.data.(!i) in
      incr i;
      let false_lit = -p in
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      if lit_value s c.(0) = 1 then begin
        wl.Cvec.data.(!keep) <- c;
        incr keep
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && lit_value s c.(!k) = -1 do
          incr k
        done;
        if !k < len then begin
          (* Move the watch to a non-false literal. *)
          c.(1) <- c.(!k);
          c.(!k) <- false_lit;
          Cvec.push s.watches.(lit_index (-c.(1))) c
        end
        else if lit_value s c.(0) = -1 then begin
          (* Conflict: retain the rest of the list untouched. *)
          wl.Cvec.data.(!keep) <- c;
          incr keep;
          while !i < n do
            wl.Cvec.data.(!keep) <- wl.Cvec.data.(!i);
            incr keep;
            incr i
          done;
          confl := Some c
        end
        else begin
          wl.Cvec.data.(!keep) <- c;
          incr keep;
          s.propagations_total <- s.propagations_total + 1;
          enqueue s c.(0) (Some c)
        end
      end
    done;
    wl.Cvec.size <- !keep
  done;
  !confl

(* --- Conflict analysis (first UIP) --------------------------------------- *)

let analyze s confl =
  let seen = s.seen in
  let tail = ref [] in
  let btlevel = ref 0 in
  let counter = ref 0 in
  let p = ref 0 in
  let cur = ref confl in
  let idx = ref (s.trail_size - 1) in
  let stop = ref false in
  while not !stop do
    let c = !cur in
    let start = if !p = 0 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = abs q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        bump s v;
        if s.level.(v) >= s.n_levels then incr counter
        else begin
          tail := q :: !tail;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    while not seen.(abs s.trail.(!idx)) do
      decr idx
    done;
    let pl = s.trail.(!idx) in
    decr idx;
    p := pl;
    seen.(abs pl) <- false;
    decr counter;
    if !counter = 0 then stop := true
    else
      cur :=
        (match s.reason.(abs pl) with
        | Some r -> r
        | None -> assert false (* a decision cannot be a non-UIP pivot *))
  done;
  List.iter (fun q -> seen.(abs q) <- false) !tail;
  (Array.of_list (- !p :: !tail), !btlevel)

(* Shared with Hwpat_obs.Metrics.bucket_of (64 buckets, clamp into the
   last): the cross-library agreement is pinned by a regression test in
   test_obs.ml, so a drift on either side fails loudly. *)
let n_size_buckets = 64

let size_bucket n =
  if n <= 0 then 0
  else
    let rec go v k = if v = 0 then k else go (v lsr 1) (k + 1) in
    min (n_size_buckets - 1) (go n 0)

let record s learnt btlevel =
  let len = Array.length learnt in
  s.learned_total <- s.learned_total + 1;
  s.learned_literals <- s.learned_literals + len;
  let b = size_bucket len in
  s.learned_size_buckets.(b) <- s.learned_size_buckets.(b) + 1;
  cancel_until s btlevel;
  if Array.length learnt = 1 then enqueue s learnt.(0) None
  else begin
    (* Slot 1 must hold a literal from the backtrack level so the
       watch invariant survives the next backtrack. *)
    let mi = ref 1 in
    for i = 2 to Array.length learnt - 1 do
      if s.level.(abs learnt.(i)) > s.level.(abs learnt.(!mi)) then mi := i
    done;
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!mi);
    learnt.(!mi) <- tmp;
    attach s learnt;
    s.n_clauses <- s.n_clauses + 1;
    enqueue s learnt.(0) (Some learnt)
  end

(* --- Top level ----------------------------------------------------------- *)

let create () =
  let cap = 16 in
  let s =
    {
      scopes = [];
      n_vars = 0;
      cap;
      assigns = Array.make (cap + 1) 0;
      level = Array.make (cap + 1) 0;
      reason = Array.make (cap + 1) None;
      activity = Array.make (cap + 1) 0.;
      polarity = Array.make (cap + 1) init_phase;
      seen = Array.make (cap + 1) false;
      heap = Array.make (cap + 1) 0;
      heap_size = 0;
      heap_pos = Array.make (cap + 1) (-1);
      watches = Array.init (2 * (cap + 1)) (fun _ -> Cvec.create ());
      trail = Array.make (cap + 1) 0;
      trail_size = 0;
      trail_lim = Array.make (2 * (cap + 1)) 0;
      n_levels = 0;
      qhead = 0;
      var_inc = 1.0;
      n_clauses = 0;
      conflicts_total = 0;
      decisions_total = 0;
      propagations_total = 0;
      restarts_total = 0;
      unknowns_total = 0;
      learned_total = 0;
      learned_literals = 0;
      learned_size_buckets = Array.make n_size_buckets 0;
      unsat = false;
    }
  in
  let tl = new_var s in
  enqueue s tl None;
  s

let true_lit _ = 1

let add_clause_unguarded s lits =
  if not s.unsat then begin
    cancel_until s 0;
    let lits = List.sort_uniq compare lits in
    let tautology = List.exists (fun l -> List.mem (-l) lits) lits in
    if not tautology then begin
      if List.exists (fun l -> lit_value s l = 1) lits then ()
      else
        match List.filter (fun l -> lit_value s l <> -1) lits with
        | [] -> s.unsat <- true
        | [ l ] -> (
          enqueue s l None;
          match propagate s with
          | Some _ -> s.unsat <- true
          | None -> ())
        | lits ->
          let c = Array.of_list lits in
          attach s c;
          s.n_clauses <- s.n_clauses + 1
    end
  end

(* A clause added inside an assumption scope is guarded by the
   innermost scope's activation literal: it (and every clause learned
   from it, which inherits the literal through conflict analysis) is
   live only while that scope is open, and dies for good when [pop]
   asserts the negation.  Guarding with just the innermost literal is
   enough because scopes pop in LIFO order. *)
let add_clause s lits =
  add_clause_unguarded s
    (match s.scopes with [] -> lits | act :: _ -> -act :: lits)

let push s =
  let act = new_var s in
  s.scopes <- act :: s.scopes

let pop s =
  match s.scopes with
  | [] -> invalid_arg "Solver.pop: no open scope"
  | act :: rest ->
    s.scopes <- rest;
    add_clause_unguarded s [ -act ]

let scope_depth s = List.length s.scopes

let pick_branch s =
  let rec go () =
    if s.heap_size = 0 then 0
    else
      let v = heap_pop s in
      if s.assigns.(v) = 0 then if s.polarity.(v) then v else -v else go ()
  in
  go ()

let solve ?(assumptions = []) ?(budget = no_budget) ?interrupt s =
  if s.unsat then Unsat
  else begin
    cancel_until s 0;
    (* Open scopes' activation literals are standing assumptions
       (outermost first, so a scope conflict reports deterministically),
       ahead of the caller's own. *)
    let assumps = Array.of_list (List.rev_append s.scopes assumptions) in
    let n_assumps = Array.length assumps in
    let restart_limit = ref restart_base in
    let conflicts = ref 0 in
    let result = ref None in
    (* Budget caps count work done by *this* call, so a budget-limited
       solve behaves identically whether the solver is fresh or has
       served earlier incremental calls. *)
    let start_conflicts = s.conflicts_total in
    let start_propagations = s.propagations_total in
    let over_budget () =
      (budget.max_conflicts > 0
      && s.conflicts_total - start_conflicts >= budget.max_conflicts)
      || budget.max_propagations > 0
         && s.propagations_total - start_propagations
            >= budget.max_propagations
    in
    while !result = None do
      (match interrupt with Some f -> f () | None -> ());
      if over_budget () then begin
        (* Deterministic give-up: the caps count solver operations, not
           wall clock, so the same instance trips at the same point in
           every run.  Back out to level 0 so the solver stays usable
           for later (incremental) calls. *)
        cancel_until s 0;
        s.unknowns_total <- s.unknowns_total + 1;
        result := Some Unknown
      end
      else
      match propagate s with
      | Some confl ->
        s.conflicts_total <- s.conflicts_total + 1;
        incr conflicts;
        if s.n_levels = 0 then begin
          (* Independent of assumptions: level-0 units never follow
             from assumption decisions. *)
          s.unsat <- true;
          result := Some Unsat
        end
        else begin
          let learnt, btlevel = analyze s confl in
          record s learnt btlevel;
          s.var_inc <- s.var_inc /. decay;
          if !conflicts >= !restart_limit then begin
            conflicts := 0;
            restart_limit :=
              max (!restart_limit + 1)
                (int_of_float
                   (float_of_int !restart_limit *. restart_factor));
            s.restarts_total <- s.restarts_total + 1;
            cancel_until s 0
          end
        end
      | None ->
        if s.n_levels < n_assumps then begin
          let a = assumps.(s.n_levels) in
          match lit_value s a with
          | 1 -> new_level s (* already implied; placeholder level *)
          | -1 -> result := Some Unsat
          | _ ->
            new_level s;
            enqueue s a None
        end
        else begin
          match pick_branch s with
          | 0 -> result := Some Sat
          | l ->
            s.decisions_total <- s.decisions_total + 1;
            new_level s;
            enqueue s l None
        end
    done;
    match !result with Some r -> r | None -> assert false
  end

let value s l = lit_value s l = 1
let num_vars s = s.n_vars
let num_clauses s = s.n_clauses
let num_conflicts s = s.conflicts_total

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  unknowns : int;
  learned_clauses : int;
  learned_literals : int;
  learned_size_buckets : int array;
}

let stats s =
  {
    decisions = s.decisions_total;
    propagations = s.propagations_total;
    conflicts = s.conflicts_total;
    restarts = s.restarts_total;
    unknowns = s.unknowns_total;
    learned_clauses = s.learned_total;
    learned_literals = s.learned_literals;
    learned_size_buckets = Array.copy s.learned_size_buckets;
  }
