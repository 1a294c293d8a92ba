(* Equivalence checking: single-frame miter for combinational pairs;
   BMC + van-Eijk-style candidate-equivalence induction (with a plain
   k-induction fallback) for sequential pairs.

   One solver carries a whole check: the BMC sweep, every escalation
   attempt of the induction, phase B and the k-induction fallback all
   add clauses to the same instance, so lemmas learned in one stage
   prune the search of the next.  Frames are built through {!Strash},
   hash-consed, so the structure the two sides share is encoded
   once. *)

open Hwpat_rtl

type result =
  | Proved
  | Counterexample of (string * Bits.t) list list
  | Unknown of string

(* Raised (internally) when a budget-limited solve call returns
   [Solver.Unknown]; caught at the top of [check] and surfaced as an
   honest [Unknown] result.  The solve sites below match on [`Sat] /
   [`Unsat] only — the wrapper in [check] translates. *)
exception Out_of_budget

(* --- Port matching ------------------------------------------------------- *)

type plan = {
  a : Circuit.t;
  b : Circuit.t;
  union_inputs : (string * int * int) list;
      (* name, width, scope: 0 = shared, 1 = a-only, 2 = b-only *)
  shared_outputs : string list;
  elts_a : Strash.state_elt array;
  elts_b : Strash.state_elt array;
}

let make_plan a b =
  let ia = Circuit.inputs a and ib = Circuit.inputs b in
  let widths ports = List.map (fun (n, s) -> (n, Signal.width s)) ports in
  let wa = widths ia and wb = widths ib in
  let union_inputs =
    List.map
      (fun (n, w) ->
        match List.assoc_opt n wb with
        | Some w' when w' <> w ->
          invalid_arg
            (Printf.sprintf "Equiv: input %s has width %d vs %d" n w w')
        | Some _ -> (n, w, 0)
        | None -> (n, w, 1))
      wa
    @ List.filter_map
        (fun (n, w) ->
          if List.mem_assoc n wa then None else Some (n, w, 2))
        wb
  in
  let oa = widths (Circuit.outputs a) and ob = widths (Circuit.outputs b) in
  let shared_outputs =
    List.filter_map
      (fun (n, w) ->
        match List.assoc_opt n ob with
        | Some w' when w' <> w ->
          invalid_arg
            (Printf.sprintf "Equiv: output %s has width %d vs %d" n w w')
        | Some _ -> Some n
        | None -> None)
      oa
  in
  if shared_outputs = [] then
    invalid_arg "Equiv: the circuits share no output names";
  {
    a;
    b;
    union_inputs;
    shared_outputs;
    elts_a = Strash.state_elements a;
    elts_b = Strash.state_elements b;
  }

(* --- One joint frame ----------------------------------------------------- *)

type joint = {
  j_vecs : (string * int array) list;
  j_out_a : (string * int array) list;
  j_out_b : (string * int array) list;
  j_next_a : int array array;
  j_next_b : int array array;
  j_diff : int;  (** strash lit: some shared output differs *)
}

(* Inputs exclusive to one side are tied to zero: the convention that
   makes a pruned variant (requests tied off at elaboration) comparable
   to the full model on the retained interface.  Both sides read the
   {e same} input vectors, so any logic the two circuits share becomes
   the same strash nodes and output equality folds away structurally. *)
let instantiate sh plan ~st_a ~st_b =
  let vecs =
    List.map
      (fun (name, w, scope) ->
        ( name,
          if scope = 0 then Strash.fresh_vector sh w
          else Strash.constant sh (Bits.zero w) ))
      plan.union_inputs
  in
  let input_fn name = List.assoc name vecs in
  let fa = Strash.frame sh plan.a ~inputs:input_fn ~state:(fun i -> st_a.(i)) in
  let fb = Strash.frame sh plan.b ~inputs:input_fn ~state:(fun i -> st_b.(i)) in
  let diff =
    Strash.or_list sh
      (List.map
         (fun n ->
           Strash.snot
             (Strash.lits_equal sh
                (List.assoc n fa.Strash.outputs)
                (List.assoc n fb.Strash.outputs)))
         plan.shared_outputs)
  in
  {
    j_vecs = vecs;
    j_out_a = fa.Strash.outputs;
    j_out_b = fb.Strash.outputs;
    j_next_a = fa.Strash.next;
    j_next_b = fb.Strash.next;
    j_diff = diff;
  }

let init_state sh elts =
  Array.map (fun elt -> Strash.constant sh (Strash.elt_init elt)) elts

let free_state sh elts =
  Array.map (fun elt -> Strash.fresh_vector sh (Strash.elt_width elt)) elts

(* --- Counterexample search and replay ------------------------------------ *)

let extract_cex sh frames_rev =
  List.rev_map
    (fun vecs -> List.map (fun (name, v) -> (name, Strash.model_bits sh v)) vecs)
    frames_rev

let counterexample_to_string cex =
  String.concat "\n"
    (List.mapi
       (fun k assignment ->
         Printf.sprintf "  cycle %d: %s" k
           (String.concat " "
              (List.map
                 (fun (n, v) -> Printf.sprintf "%s=%s" n (Bits.to_string v))
                 assignment)))
       cex)

(* Drive the assignment through both simulators; the first differing
   shared output confirms the counterexample is real. *)
let replay plan cex =
  let sa = Cyclesim.create plan.a and sb = Cyclesim.create plan.b in
  let diverged = ref None in
  List.iteri
    (fun k assignment ->
      if !diverged = None then begin
        List.iter
          (fun (name, v) ->
            if List.mem_assoc name (Circuit.inputs plan.a) then
              Cyclesim.drive sa name v;
            if List.mem_assoc name (Circuit.inputs plan.b) then
              Cyclesim.drive sb name v)
          assignment;
        Cyclesim.cycle sa;
        Cyclesim.cycle sb;
        List.iter
          (fun name ->
            let va = !(Cyclesim.out_port sa name)
            and vb = !(Cyclesim.out_port sb name) in
            if (not (Bits.equal va vb)) && !diverged = None then
              diverged := Some (k, name, va, vb))
          plan.shared_outputs
      end)
    cex;
  !diverged

let confirm_cex plan cex =
  match replay plan cex with
  | Some _ -> Counterexample cex
  | None ->
    failwith
      ("Equiv: SAT counterexample does not replay in Cyclesim — the \
        encoding disagrees with the simulator\n"
      ^ counterexample_to_string cex)

(* Unroll both circuits from their power-on state and look for a frame
   whose shared outputs can differ. The returned function is a
   resumable sweep: each call extends the unrolling up to the requested
   depth (frames already searched are not re-solved) and returns the
   first counterexample among the new frames, if any. Resumability
   lets [check] sweep shallowly before induction and return for a deep
   sweep only when induction stays undecided — the per-frame miter
   solves get exponentially harder with depth. *)
let bmc_sweep ~solve sh plan =
  let solver = Strash.solver sh in
  let st_a = ref (init_state sh plan.elts_a) in
  let st_b = ref (init_state sh plan.elts_b) in
  let frames = ref [] in
  let searched = ref 0 in
  fun ~depth ->
    let found = ref None in
    while !found = None && !searched < depth do
      let j = instantiate sh plan ~st_a:!st_a ~st_b:!st_b in
      st_a := j.j_next_a;
      st_b := j.j_next_b;
      frames := j.j_vecs :: !frames;
      let act = Solver.new_var solver in
      Solver.add_clause solver [ -act; Strash.to_solver_lit sh j.j_diff ];
      (match solve ~assumptions:[ act ] solver with
      | `Sat -> found := Some (extract_cex sh !frames)
      | `Unsat -> ());
      incr searched
    done;
    !found

(* --- Candidate discovery by random simulation ---------------------------- *)

(* A state bit: (side, element index, bit index). *)
type side_bit = int * int * int

(* An equivalence class of state bits conjectured pairwise equal in
   every reachable state — and pinned to a constant when tagged. The
   class is the unit of hypothesis: keeping classes whole (rather than
   a flat list of pairwise candidates) lets the induction loop refine
   them against countermodels without losing relations that were only
   represented transitively. *)
type cls = { members : side_bit list; const : bool option }

let random_bits st ~width =
  let rec chunks w acc =
    if w <= 0 then acc
    else
      let k = min w 16 in
      chunks (w - k) (Bits.of_int ~width:k (Random.State.int st (1 lsl k)) :: acc)
  in
  Bits.concat_msb (chunks width [])

let state_bits_value sim elt =
  match elt with
  | Strash.Reg_state s | Strash.Read_state s -> Cyclesim.peek_state sim s
  | Strash.Mem_word (m, i) -> (Cyclesim.memory_contents sim m).(i)

(* Per-state-bit 0/1 signatures over a random run (the power-on state
   is sample 0). Identical signatures land in one equivalence class;
   all-zero / all-one signatures tag the class as constant. *)
let discover_classes plan ~sim_cycles =
  let sa = Cyclesim.create plan.a and sb = Cyclesim.create plan.b in
  let n_samples = sim_cycles + 1 in
  let make_sigs elts =
    Array.map (fun e -> Array.init (Strash.elt_width e) (fun _ -> Bytes.make n_samples '0')) elts
  in
  let sigs_a = make_sigs plan.elts_a and sigs_b = make_sigs plan.elts_b in
  let sample t =
    let one sim elts sigs =
      Array.iteri
        (fun i e ->
          let v = state_bits_value sim e in
          Array.iteri
            (fun bit sg ->
              Bytes.set sg t (if Bits.bit v bit then '1' else '0'))
            sigs.(i))
        elts
    in
    one sa plan.elts_a sigs_a;
    one sb plan.elts_b sigs_b
  in
  let rng = Random.State.make [| 0x51ac7 |] in
  sample 0;
  for t = 1 to sim_cycles do
    List.iter
      (fun (name, w, scope) ->
        if scope = 0 then begin
          let v = random_bits rng ~width:w in
          Cyclesim.drive sa name v;
          Cyclesim.drive sb name v
        end)
      plan.union_inputs;
    Cyclesim.cycle sa;
    Cyclesim.cycle sb;
    sample t
  done;
  let classes = Hashtbl.create 997 in
  let note side sigs =
    Array.iteri
      (fun i per_bit ->
        Array.iteri
          (fun bit sg ->
            let key = Bytes.to_string sg in
            Hashtbl.replace classes key
              ((side, i, bit) :: (try Hashtbl.find classes key with Not_found -> [])))
          per_bit)
      sigs
  in
  note 0 sigs_a;
  note 1 sigs_b;
  let zeros = String.make n_samples '0' and ones = String.make n_samples '1' in
  Hashtbl.fold
    (fun key members acc ->
      let members = List.rev members in
      let const =
        if key = zeros then Some false
        else if key = ones then Some true
        else None
      in
      match members with
      | _ :: _ :: _ -> { members; const } :: acc
      | [ _ ] when const <> None -> { members; const } :: acc
      | _ -> acc)
    classes []

let init_bit plan (side, e, bit) =
  let elts = if side = 0 then plan.elts_a else plan.elts_b in
  Bits.bit (Strash.elt_init elts.(e)) bit

(* --- Induction ----------------------------------------------------------- *)

let debug = Sys.getenv_opt "EQUIV_DEBUG" <> None

(* An encoded candidate class: its relations are assumed at time t
   through the selector literal [sel] and each [viols] literal is true
   iff one relation fails at time t+1.  Encoded once; a class only
   pays again if a countermodel actually splits it, in which case the
   stale selector is retired with a unit clause and the fragments are
   encoded fresh. *)
type enc_cls = { cls : cls; sel : Solver.lit; viols : Solver.lit list }

(* The joint induction frame over a free state, encoded once per check
   and shared by every escalation attempt, phase B included — the
   frame is the expensive part of the induction, and nothing about it
   depends on which candidate classes are currently conjectured. *)
type ind_ctx = {
  sh : Strash.t;
  plan : plan;
  st_a : int array array;
  st_b : int array array;
  joint : joint;
  mutable live : enc_cls list;
}

let make_ind_ctx sh plan =
  let st_a = free_state sh plan.elts_a in
  let st_b = free_state sh plan.elts_b in
  let joint = instantiate sh plan ~st_a ~st_b in
  { sh; plan; st_a; st_b; joint; live = [] }

let cur_lit ctx (side, elt, bit) =
  if side = 0 then ctx.st_a.(elt).(bit) else ctx.st_b.(elt).(bit)

let next_lit ctx (side, elt, bit) =
  if side = 0 then ctx.joint.j_next_a.(elt).(bit)
  else ctx.joint.j_next_b.(elt).(bit)

let encode_cls ctx c =
  let sh = ctx.sh in
  let solver = Strash.solver sh in
  let sl = Strash.to_solver_lit sh in
  match c.members with
  | [] -> None
  | rep :: rest ->
    let s = Solver.new_var solver in
    let member_viols =
      List.map
        (fun m ->
          Solver.add_clause solver
            [ -s; -sl (cur_lit ctx rep); sl (cur_lit ctx m) ];
          Solver.add_clause solver
            [ -s; sl (cur_lit ctx rep); -sl (cur_lit ctx m) ];
          sl (Strash.sxor sh (next_lit ctx rep) (next_lit ctx m)))
        rest
    in
    let const_viols =
      match c.const with
      | Some v ->
        Solver.add_clause solver
          [ -s; (if v then sl (cur_lit ctx rep) else -sl (cur_lit ctx rep)) ];
        [ sl (if v then Strash.snot (next_lit ctx rep) else next_lit ctx rep) ]
      | None -> []
    in
    Some { cls = c; sel = s; viols = member_viols @ const_viols }

let retire ctx ec = Solver.add_clause (Strash.solver ctx.sh) [ -ec.sel ]

let install_classes ctx classes =
  List.iter (retire ctx) ctx.live;
  ctx.live <- List.filter_map (encode_cls ctx) classes

let dbg_side_bit plan (side, e, bit) =
  let elts = if side = 0 then plan.elts_a else plan.elts_b in
  let base =
    match elts.(e) with
    | Strash.Reg_state s | Strash.Read_state s -> Format.asprintf "%a" Signal.pp s
    | Strash.Mem_word (m, i) -> Printf.sprintf "%s[%d]" (Signal.memory_name m) i
  in
  Printf.sprintf "%c:%s.%d" (if side = 0 then 'a' else 'b') base bit

(* One induction frame over a free joint state: each class's relations
   are assumed at time t through a selector literal and checked at time
   t+1 (and on the outputs, at time t). When a check fails, the
   countermodel's next-state valuation acts as one more signature
   sample: every class is re-split by it. Refining — rather than
   dropping the violated pairs — is what keeps the genuine relations a
   class carried transitively: a spurious classmate separates out
   without severing, say, a.count == b.count, which may have been
   represented only through links to that classmate.

   The refinement is incremental: only classes the countermodel
   actually splits are re-encoded (old selector retired by unit
   clause, fragments encoded fresh); the surviving classes, the joint
   frame, and every lemma the solver learned along the way are carried
   into the next round untouched.  The historical encoding re-blasted
   every class every round — on the blur pair that was ~370 classes
   re-encoded per round for hundreds of rounds. *)
let prove_by_induction ctx ~solve ~classes ~bmc_depth ~max_induction
    ~with_fallback ~refine_budget =
  let sh = ctx.sh in
  let solver = Strash.solver sh in
  let sl = Strash.to_solver_lit sh in
  let plan = ctx.plan in
  install_classes ctx classes;
  (* Each refinement round pays one SAT solve, and typically separates
     only one spurious classmate. Classes discovered from a too-short
     simulation can need hundreds of rounds, so the budget bounds the
     work per attempt: on exhaustion the caller re-discovers from a
     longer simulation, which starts with far fewer spurious classes.
     Refinement itself always terminates — every round splits a class
     or drops a constant tag — so the final attempt runs with an
     effectively unlimited budget. *)
  let rec converge ~budget =
    if debug then
      Printf.eprintf "[equiv] converge: %d classes (budget %d)\n%!"
        (List.length ctx.live) budget;
    match List.concat_map (fun ec -> ec.viols) ctx.live with
    | [] -> true
    | viols -> (
      let act = Solver.new_var solver in
      Solver.add_clause solver (-act :: viols);
      let sels = List.map (fun ec -> ec.sel) ctx.live in
      match solve ~assumptions:(act :: sels) solver with
      | `Unsat -> true
      | `Sat when budget = 0 -> false
      | `Sat ->
        let progress = ref false in
        ctx.live <-
          List.concat_map
            (fun ec ->
              let c = ec.cls in
              let zero, one =
                List.partition
                  (fun m -> not (Strash.value sh (next_lit ctx m)))
                  c.members
              in
              let sub members const =
                match members with
                | [] -> []
                | [ _ ] when const = None -> []
                | _ -> [ { members; const } ]
              in
              let fragments =
                match c.const with
                | Some v ->
                  let keep, lose = if v then (one, zero) else (zero, one) in
                  if lose = [] then None
                  else Some (sub keep c.const @ sub lose None)
                | None ->
                  if zero = [] || one = [] then None
                  else Some (sub zero None @ sub one None)
              in
              match fragments with
              | None -> [ ec ] (* untouched: keep the encoding *)
              | Some frags ->
                progress := true;
                retire ctx ec;
                List.filter_map (encode_cls ctx) frags)
            ctx.live;
        if not !progress then
          (* Cannot happen: a Sat answer violates some goal, and that
             goal's class must split (or lose its constant tag). *)
          failwith "Equiv: induction refinement made no progress";
        if debug then
          Printf.eprintf "[equiv] refine -> %d classes\n%!"
            (List.length ctx.live);
        converge ~budget:(budget - 1))
  in
  if not (converge ~budget:refine_budget) then
    Unknown "candidate refinement exceeded its budget"
  else begin
    (* The refined classes are sound only if the power-on state
       satisfies them; discovery sampled the power-on state and
       refinement only splits classes, so this cannot fire. *)
    List.iter
      (fun ec ->
        match ec.cls.members with
        | [] -> ()
        | rep :: rest ->
          let r = init_bit plan rep in
          if
            (match ec.cls.const with Some v -> r <> v | None -> false)
            || List.exists (fun m -> init_bit plan m <> r) rest
          then failwith "Equiv: invariant class false at the initial state")
      ctx.live;
    (* Phase B: outputs equal, given the proven invariants. *)
    if debug then
      Printf.eprintf "[equiv] induction closed with %d classes\n%!"
        (List.length ctx.live);
    let act = Solver.new_var solver in
    Solver.add_clause solver [ -act; sl ctx.joint.j_diff ];
    let sels = List.map (fun ec -> ec.sel) ctx.live in
    let phase_b = solve ~assumptions:(act :: sels) solver in
    (if debug && phase_b = `Sat then begin
       List.iter
         (fun nm ->
           let va = Strash.model_bits sh (List.assoc nm ctx.joint.j_out_a)
           and vb = Strash.model_bits sh (List.assoc nm ctx.joint.j_out_b) in
           if not (Bits.equal va vb) then
             Printf.eprintf "[equiv] phase B: output %s a=%s b=%s\n%!" nm
               (Bits.to_string va) (Bits.to_string vb))
         plan.shared_outputs;
       let dump side state =
         Array.iteri
           (fun elt lits ->
             Printf.eprintf "[equiv]   %s = %s\n%!"
               (dbg_side_bit plan (side, elt, 0))
               (Bits.to_string (Strash.model_bits sh lits)))
           state
       in
       dump 0 ctx.st_a;
       dump 1 ctx.st_b
     end);
    match phase_b with
    | `Unsat -> Proved
    | `Sat when not with_fallback ->
      (* The caller will retry discovery with a longer simulation before
         paying for k-induction. *)
      Unknown "candidate induction left outputs undecided"
    | `Sat ->
      (* Fallback: k-induction on output equality, strengthened with the
         proven invariants (soundly assertable at every frame). The base
         case is the BMC sweep, so k may not exceed its depth.

         The whole fallback runs inside one solver scope: its frame and
         invariant clauses are scoped and retired on pop (a later deep
         BMC sweep on the same solver must not drag their watch lists
         along), while every lemma the solver derives from unguarded
         clauses is retained.  Scoping the emission is sound here
         because the fallback's frames are built over fresh leaves —
         no node in their cones can be reached by any later stage. *)
      let invariants = List.map (fun ec -> ec.cls) ctx.live in
      Solver.push solver;
      Fun.protect
        ~finally:(fun () -> Solver.pop solver)
        (fun () ->
          let assert_invariants st_a st_b =
            let lit (side, elt, bit) =
              if side = 0 then st_a.(elt).(bit) else st_b.(elt).(bit)
            in
            List.iter
              (fun c ->
                match c.members with
                | [] -> ()
                | rep :: rest ->
                  List.iter
                    (fun m ->
                      Solver.add_clause solver [ -sl (lit rep); sl (lit m) ];
                      Solver.add_clause solver [ sl (lit rep); -sl (lit m) ])
                    rest;
                  (match c.const with
                  | Some v ->
                    Solver.add_clause solver
                      [ (if v then sl (lit rep) else -sl (lit rep)) ]
                  | None -> ()))
              invariants
          in
          let st_a = ref (free_state sh plan.elts_a) in
          let st_b = ref (free_state sh plan.elts_b) in
          assert_invariants !st_a !st_b;
          let diffs = ref [] in
          let proved = ref false in
          let k = ref 0 in
          let k_max = min max_induction bmc_depth in
          while (not !proved) && !k <= k_max do
            let j = instantiate sh plan ~st_a:!st_a ~st_b:!st_b in
            st_a := j.j_next_a;
            st_b := j.j_next_b;
            assert_invariants !st_a !st_b;
            (* Assume equality at frames 0..k-1, require a difference
               at k. *)
            (match !diffs with
            | [] -> ()
            | earlier -> (
              let assumptions =
                sl j.j_diff :: List.map (fun d -> -sl d) earlier
              in
              match solve ~assumptions solver with
              | `Unsat -> proved := true
              | `Sat -> ()));
            diffs := j.j_diff :: !diffs;
            incr k
          done;
          if !proved then Proved
          else
            Unknown
              (Printf.sprintf
                 "candidate induction left outputs undecided and k-induction \
                  gave up at k=%d"
                 k_max))
  end

(* --- Top level ----------------------------------------------------------- *)

let check ?(trace = Hwpat_obs.Trace.null) ?(metrics = Hwpat_obs.Metrics.null)
    ?(budget = Solver.no_budget) ?interrupt ?(bmc_depth = 24)
    ?(max_induction = 20) ?(sim_cycles = 48) a b =
  let module Trace = Hwpat_obs.Trace in
  let solvers = ref [] in
  let register s =
    solvers := s :: !solvers;
    s
  in
  (* Distinguish an abandoned check (the interrupt hook raised — e.g. a
     supervision watchdog that will retry the whole call) from a
     completed one: stats are recorded only for completed checks, else
     the retry would merge the aborted attempt's partial counts on top
     of its own and the totals would double relative to a single
     uninterrupted run. *)
  let interrupted = ref false in
  let interrupt =
    match interrupt with
    | None -> None
    | Some hook ->
      Some
        (fun () ->
          try hook ()
          with exn ->
            interrupted := true;
            raise exn)
  in
  (* Every solve call in the proof shares the per-call budget and the
     interrupt hook.  A budget trip raises [Out_of_budget], caught
     below and reported as an honest [Unknown]; an [interrupt] raise
     (e.g. a supervision watchdog) propagates untouched. *)
  let solve ~assumptions solver =
    match Solver.solve ~assumptions ~budget ?interrupt solver with
    | Solver.Sat -> `Sat
    | Solver.Unsat -> `Unsat
    | Solver.Unknown -> raise Out_of_budget
  in
  let body () =
    let plan = make_plan a b in
    let stateless =
      Array.length plan.elts_a = 0 && Array.length plan.elts_b = 0
    in
    let solver = register (Solver.create ()) in
    let sh = Strash.create solver in
    let sweep = bmc_sweep ~solve sh plan in
    let sweep ~depth =
      Trace.span trace "bmc_sweep"
        ~args:[ ("depth", Trace.Int depth) ]
        (fun () -> sweep ~depth)
    in
    (* A shallow sweep catches real divergences cheaply; the full-depth
       sweep only runs when induction cannot settle the question, because
       miter solves on equivalent designs get dramatically harder with
       unrolling depth. *)
    let shallow = if stateless then 1 else min bmc_depth 12 in
    match sweep ~depth:shallow with
    | Some cex -> confirm_cex plan cex
    | None ->
      if stateless then Proved
      else
        (* Candidate quality is limited by how much of the state space
           the random run visits; handshake-heavy designs need thousands
           of cycles before pointers and latches decorrelate. Escalate
           the simulation length before paying for the k-induction
           fallback, which can be exponentially more expensive than a
           longer (linear-cost) simulation. The k-induction base case is
           the shallow sweep, so its k is bounded by [shallow]. *)
        let schedule =
          [ sim_cycles; max 512 (8 * sim_cycles); max 2048 (32 * sim_cycles) ]
        in
        let discover sc =
          Trace.span trace "discover"
            ~args:[ ("sim_cycles", Trace.Int sc) ]
            (fun () -> discover_classes plan ~sim_cycles:sc)
        in
        (* The joint induction frame is built on first use and shared
           by every escalation attempt: re-discovery replaces the
           candidate classes, not the frame. *)
        let ctx = lazy (make_ind_ctx sh plan) in
        let induction ~classes ~with_fallback ~refine_budget =
          Trace.span trace "induction" (fun () ->
              prove_by_induction (Lazy.force ctx) ~solve ~classes
                ~bmc_depth:shallow ~max_induction ~with_fallback
                ~refine_budget)
        in
        let rec attempt = function
          | [] -> assert false
          | [ last ] ->
            induction ~classes:(discover last) ~with_fallback:true
              ~refine_budget:max_int
          | sc :: rest -> (
            match
              induction ~classes:(discover sc) ~with_fallback:false
                ~refine_budget:24
            with
            | Proved -> Proved
            | Unknown _ -> attempt rest
            | Counterexample _ as r -> r)
        in
        (match attempt schedule with
        | Proved -> Proved
        | Counterexample _ as r -> r
        | Unknown why -> (
          (* Induction gave up: resume the sweep to the full requested
             depth in case a deeper concrete divergence exists. *)
          match sweep ~depth:bmc_depth with
          | Some cex -> confirm_cex plan cex
          | None -> Unknown why))
  in
  let body () =
    try body ()
    with Out_of_budget ->
      Unknown
        (Printf.sprintf
           "solver budget exhausted (max %d conflicts / %d propagations per \
            solve)"
           budget.Solver.max_conflicts budget.Solver.max_propagations)
  in
  Fun.protect
    ~finally:(fun () ->
      if not !interrupted then Solver_obs.record metrics !solvers)
    (fun () -> Trace.span trace "equiv" body)

let assert_equivalent ?bmc_depth ?max_induction a b =
  match check ?bmc_depth ?max_induction a b with
  | Proved -> ()
  | Counterexample cex ->
    failwith
      (Printf.sprintf "Equiv: %s and %s differ; counterexample:\n%s"
         (Circuit.name a) (Circuit.name b)
         (counterexample_to_string cex))
  | Unknown why ->
    failwith
      (Printf.sprintf "Equiv: could not decide %s vs %s (%s)"
         (Circuit.name a) (Circuit.name b) why)

let optimize ?(verify = false) c =
  if verify then
    Optimize.run ~verify:(fun pre post -> assert_equivalent pre post) c
  else Optimize.run c
