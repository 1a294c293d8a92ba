(* Structural hashing: the one frame encoder of the prover.  A circuit's
   time frame is built over hash-consed AIG-style nodes (AND/XOR/MUX
   over complemented edges) before Tseitin blasting.  Structurally
   identical subgraphs — including dissolved pattern-wrapper logic
   appearing on both sides of an equivalence miter, and repeated address
   decoders inside one frame — become literally the same node, and each
   node is emitted to CNF at most once per solver, however many times
   it occurs. *)

open Hwpat_rtl

(* --- State elements ------------------------------------------------------ *)

type state_elt =
  | Reg_state of Signal.t
  | Read_state of Signal.t
  | Mem_word of Signal.memory * int

let state_elements circuit =
  let signals = Circuit.signals circuit in
  let regs =
    List.filter_map
      (fun s ->
        match Signal.prim s with Reg _ -> Some (Reg_state s) | _ -> None)
      signals
  in
  let reads =
    List.filter_map
      (fun s ->
        match Signal.prim s with
        | Mem_read_sync _ -> Some (Read_state s)
        | _ -> None)
      signals
  in
  let words =
    List.concat_map
      (fun m ->
        List.init (Signal.memory_size m) (fun i -> Mem_word (m, i)))
      (Circuit.memories circuit)
  in
  Array.of_list (regs @ reads @ words)

let elt_width = function
  | Reg_state s | Read_state s -> Signal.width s
  | Mem_word (m, _) -> Signal.memory_width m

let elt_init = function
  | Reg_state s -> (
    match Signal.prim s with
    | Reg { init; _ } -> init
    | _ -> assert false)
  | (Read_state _ | Mem_word _) as e -> Bits.zero (elt_width e)

let elt_label = function
  | Reg_state s -> (
    match Signal.names s with
    | n :: _ -> "reg " ^ n
    | [] -> Printf.sprintf "reg#%d" (Signal.uid s))
  | Read_state s -> (
    match Signal.names s with
    | n :: _ -> "read " ^ n
    | [] -> Printf.sprintf "read#%d" (Signal.uid s))
  | Mem_word (m, i) -> Printf.sprintf "%s[%d]" (Signal.memory_name m) i

let elt_key = function
  | Reg_state s -> (0, Signal.uid s, 0)
  | Read_state s -> (1, Signal.uid s, 0)
  | Mem_word (m, i) -> (2, Signal.memory_uid m, i)

(* --- AIG literals and nodes ---------------------------------------------- *)

type lit = int
(* lit = 2*node + phase; phase 1 is complemented. Node 0 is constant
   true, so [lit_true = 0] and [lit_false = 1]. *)

let lit_true = 0
let lit_false = 1
let snot l = l lxor 1
let node_of l = l lsr 1
let phase_of l = l land 1

(* Node kinds, packed as ints in [kind]. *)
let k_const = 0
let k_leaf = 1 (* payload in [fa]: a positive solver literal *)
let k_and = 2
let k_xor = 3 (* children stored phase-stripped; phase on the output *)
let k_mux = 4 (* fa = select, fb = then, fc = else *)

type t = {
  solver : Solver.t;
  mutable kind : int array;
  mutable fa : int array;
  mutable fb : int array;
  mutable fc : int array;
  mutable cnf : int array; (* node -> solver lit, 0 = not yet emitted *)
  mutable n : int;
  table : (int * int * int * int, int) Hashtbl.t; (* structural hash *)
  leaves : (int, int) Hashtbl.t; (* solver var -> node *)
}

let solver t = t.solver

let create solver =
  let cap = 1024 in
  let t =
    {
      solver;
      kind = Array.make cap k_const;
      fa = Array.make cap 0;
      fb = Array.make cap 0;
      fc = Array.make cap 0;
      cnf = Array.make cap 0;
      n = 1 (* node 0 = constant true *);
      table = Hashtbl.create 4096;
      leaves = Hashtbl.create 256;
    }
  in
  t.cnf.(0) <- Solver.true_lit solver;
  t

let grow t =
  let cap = 2 * Array.length t.kind in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- extend t.kind k_const;
  t.fa <- extend t.fa 0;
  t.fb <- extend t.fb 0;
  t.fc <- extend t.fc 0;
  t.cnf <- extend t.cnf 0

let new_node t kind a b c =
  if t.n = Array.length t.kind then grow t;
  let id = t.n in
  t.n <- t.n + 1;
  t.kind.(id) <- kind;
  t.fa.(id) <- a;
  t.fb.(id) <- b;
  t.fc.(id) <- c;
  id

(* Hash-consed node creation: one node per distinct (kind, children). *)
let hashed t kind a b c =
  let key = (kind, a, b, c) in
  match Hashtbl.find_opt t.table key with
  | Some id -> 2 * id
  | None ->
    let id = new_node t kind a b c in
    Hashtbl.add t.table key id;
    2 * id

let of_solver_lit t sl =
  if sl = Solver.true_lit t.solver then lit_true
  else if sl = -Solver.true_lit t.solver then lit_false
  else begin
    let v = abs sl in
    let id =
      match Hashtbl.find_opt t.leaves v with
      | Some id -> id
      | None ->
        let id = new_node t k_leaf v 0 0 in
        Hashtbl.add t.leaves v id;
        t.cnf.(id) <- v;
        id
    in
    if sl > 0 then 2 * id else (2 * id) + 1
  end

let fresh t = of_solver_lit t (Solver.new_var t.solver)
let fresh_vector t w = Array.init w (fun _ -> fresh t)

let constant t b =
  ignore t;
  Array.init (Bits.width b) (fun i -> if Bits.bit b i then lit_true else lit_false)

(* --- AND with constant propagation and two-level rewriting --------------- *)

(* Is [l] a plain (uncomplemented) AND node?  Its children, if so. *)
let as_and t l =
  if phase_of l = 0 && t.kind.(node_of l) = k_and then
    Some (t.fa.(node_of l), t.fb.(node_of l))
  else None

(* Is [l] a complemented AND (an OR of the complements)? *)
let as_nand t l =
  if phase_of l = 1 && t.kind.(node_of l) = k_and then
    Some (t.fa.(node_of l), t.fb.(node_of l))
  else None

let rec sand t a b =
  if a = lit_false || b = lit_false then lit_false
  else if a = lit_true then b
  else if b = lit_true then a
  else if a = b then a
  else if a = snot b then lit_false
  else begin
    (* Two-level rewriting (the classic strash rules): look one level
       into AND-shaped operands for contradictions, absorptions and
       substitutions before creating a node. *)
    let rewritten =
      match (as_and t a, as_and t b) with
      | Some (x, y), _ when b = x || b = y -> Some a (* (xy)·x = xy *)
      | Some (x, y), _ when b = snot x || b = snot y ->
        Some lit_false (* (xy)·¬x = 0 *)
      | _, Some (x, y) when a = x || a = y -> Some b
      | _, Some (x, y) when a = snot x || a = snot y -> Some lit_false
      | Some (x, y), Some (u, v)
        when x = snot u || x = snot v || y = snot u || y = snot v ->
        Some lit_false (* (xy)·(¬x z) = 0 *)
      | _ -> (
        match (as_nand t a, as_nand t b) with
        | Some (x, y), _ when b = x -> Some (sand t b (snot y))
          (* ¬(xy)·x = x·¬y *)
        | Some (x, y), _ when b = y -> Some (sand t b (snot x))
        | _, Some (x, y) when a = x -> Some (sand t a (snot y))
        | _, Some (x, y) when a = y -> Some (sand t a (snot x))
        | Some (x, y), _ when b = snot x || b = snot y ->
          Some b (* ¬(xy)·¬x = ¬x *)
        | _, Some (x, y) when a = snot x || a = snot y -> Some a
        | _ -> None)
    in
    match rewritten with
    | Some l -> l
    | None ->
      let a, b = if a <= b then (a, b) else (b, a) in
      hashed t k_and a b 0
  end

let sor t a b = snot (sand t (snot a) (snot b))

let sxor t a b =
  if a = lit_false then b
  else if b = lit_false then a
  else if a = lit_true then snot b
  else if b = lit_true then snot a
  else if a = b then lit_false
  else if a = snot b then lit_true
  else begin
    (* Canonical form: children phase-stripped and ordered, the parity
       of the stripped phases carried on the output edge. *)
    let ph = phase_of a lxor phase_of b in
    let a = a land lnot 1 and b = b land lnot 1 in
    let a, b = if a <= b then (a, b) else (b, a) in
    hashed t k_xor a b 0 lxor ph
  end

(* [c ? d1 : d0] *)
let rec smux t c d1 d0 =
  if c = lit_true then d1
  else if c = lit_false then d0
  else if d1 = d0 then d1
  else if phase_of c = 1 then smux t (snot c) d0 d1
  else if d1 = lit_true && d0 = lit_false then c
  else if d1 = lit_false && d0 = lit_true then snot c
  else if d1 = snot d0 then sxor t c d0
  else if d1 = lit_false then sand t (snot c) d0
  else if d1 = lit_true then sor t c d0
  else if d0 = lit_false then sand t c d1
  else if d0 = lit_true then sor t (snot c) d1
  else if d1 = c then sor t c d0 (* c ? c : d0 *)
  else if d1 = snot c then sand t (snot c) d0
  else if d0 = c then sand t c d1 (* c ? d1 : c *)
  else if d0 = snot c then sor t (snot c) d1
  else if phase_of d1 = 1 then snot (smux t c (snot d1) (snot d0))
  else hashed t k_mux c d1 d0

let and_list t = function
  | [] -> lit_true
  | l :: rest -> List.fold_left (sand t) l rest

let or_list t = function
  | [] -> lit_false
  | l :: rest -> List.fold_left (sor t) l rest

(* --- CNF emission -------------------------------------------------------- *)

(* Emit the Tseitin clauses for a node cone, once per node per manager
   lifetime; shared nodes cost one emission however many contexts use
   them.  Iterative so deeply unrolled frames cannot overflow the
   stack. *)
let emit t root =
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      if t.cnf.(id) <> 0 then stack := rest
      else begin
        let deps =
          if t.kind.(id) = k_mux then
            [ node_of t.fa.(id); node_of t.fb.(id); node_of t.fc.(id) ]
          else [ node_of t.fa.(id); node_of t.fb.(id) ]
        in
        let pending = List.filter (fun d -> t.cnf.(d) = 0) deps in
        if pending <> [] then stack := pending @ !stack
        else begin
          stack := rest;
          let s = t.solver in
          let sl l =
            let base = t.cnf.(node_of l) in
            if phase_of l = 1 then -base else base
          in
          let o = Solver.new_var s in
          t.cnf.(id) <- o;
          if t.kind.(id) = k_and then begin
            let a = sl t.fa.(id) and b = sl t.fb.(id) in
            Solver.add_clause s [ -o; a ];
            Solver.add_clause s [ -o; b ];
            Solver.add_clause s [ o; -a; -b ]
          end
          else if t.kind.(id) = k_xor then begin
            let a = sl t.fa.(id) and b = sl t.fb.(id) in
            Solver.add_clause s [ -o; a; b ];
            Solver.add_clause s [ -o; -a; -b ];
            Solver.add_clause s [ o; a; -b ];
            Solver.add_clause s [ o; -a; b ]
          end
          else begin
            let c = sl t.fa.(id) and d1 = sl t.fb.(id) and d0 = sl t.fc.(id) in
            Solver.add_clause s [ -c; -d1; o ];
            Solver.add_clause s [ -c; d1; -o ];
            Solver.add_clause s [ c; -d0; o ];
            Solver.add_clause s [ c; d0; -o ]
          end
        end
      end
  done

let to_solver_lit t l =
  let id = node_of l in
  if t.cnf.(id) = 0 then emit t id;
  let base = t.cnf.(id) in
  if phase_of l = 1 then -base else base

(* --- Model evaluation ---------------------------------------------------- *)

(* Value of a literal under the solver's current model.  Emitted nodes
   read their CNF variable; unemitted nodes (shared structure that no
   constraint happened to touch) are evaluated structurally, so callers
   may probe any vector after a Sat answer. *)
let value t l =
  let memo = Hashtbl.create 64 in
  let rec node id =
    if t.cnf.(id) <> 0 then Solver.value t.solver t.cnf.(id)
    else
      match Hashtbl.find_opt memo id with
      | Some v -> v
      | None ->
        let v =
          if t.kind.(id) = k_and then lit_v t.fa.(id) && lit_v t.fb.(id)
          else if t.kind.(id) = k_xor then lit_v t.fa.(id) <> lit_v t.fb.(id)
          else if lit_v t.fa.(id) then lit_v t.fb.(id)
          else lit_v t.fc.(id)
        in
        Hashtbl.add memo id v;
        v
  and lit_v l = node (node_of l) <> (phase_of l = 1) in
  lit_v l

let model_bits t v =
  let w = Array.length v in
  Bits.of_string (String.init w (fun i -> if value t v.(w - 1 - i) then '1' else '0'))

(* --- Vector helpers: word-level operators over AIG literals, LSB-first -- *)

let lits_equal t a b =
  if Array.length a <> Array.length b then
    invalid_arg "Strash.lits_equal: width mismatch";
  and_list t (Array.to_list (Array.map2 (fun x y -> snot (sxor t x y)) a b))

let bool_of_vec t v = or_list t (Array.to_list v)

let eq_const t v k =
  let w = Array.length v in
  if w < Sys.int_size - 1 && k lsr w <> 0 then lit_false
  else
    and_list t
      (List.init w (fun i -> if (k lsr i) land 1 = 1 then v.(i) else snot v.(i)))

let full_adder t a b cin =
  let ab = sxor t a b in
  let sum = sxor t ab cin in
  let carry = sor t (sand t a b) (sand t cin ab) in
  (sum, carry)

let add_vec t ?cin a b =
  let w = Array.length a in
  let carry = ref (match cin with Some c -> c | None -> lit_false) in
  Array.init w (fun i ->
      let sum, c = full_adder t a.(i) b.(i) !carry in
      carry := c;
      sum)

let sub_vec t a b = add_vec t ~cin:lit_true a (Array.map snot b)

let mul_vec t a b =
  let w = Array.length a in
  let acc = ref (Array.make w lit_false) in
  for i = 0 to w - 1 do
    let pp =
      Array.init w (fun j -> if j < i then lit_false else sand t a.(j - i) b.(i))
    in
    acc := add_vec t !acc pp
  done;
  !acc

let lt_vec t a b =
  let w = Array.length a in
  let lt = ref lit_false in
  for i = 0 to w - 1 do
    let bits_differ = sxor t a.(i) b.(i) in
    lt := smux t bits_differ (sand t (snot a.(i)) b.(i)) !lt
  done;
  !lt

let mux_cases t sel cases =
  match List.rev cases with
  | [] -> invalid_arg "Strash: empty mux"
  | last :: rev_rest ->
    let n = List.length cases in
    let result = ref last in
    List.iteri
      (fun j case ->
        let i = n - 2 - j in
        let hit = eq_const t sel i in
        result := Array.map2 (fun d1 d0 -> smux t hit d1 d0) case !result)
      rev_rest;
    !result

(* --- Frame --------------------------------------------------------------- *)

type frame = {
  value : Signal.t -> lit array;
  outputs : (string * lit array) list;
  next : lit array array;
}

(* One time-frame of a circuit over AIG literals, with the
   settle-then-edge semantics of Cyclesim, hash-consed: a subgraph
   occurring on both sides of a miter (or repeated inside one side) is
   encoded once. *)
let frame t circuit ~inputs ~state =
  let elts = state_elements circuit in
  let pos = Hashtbl.create 97 in
  Array.iteri (fun i e -> Hashtbl.replace pos (elt_key e) i) elts;
  let state_of e = state (Hashtbl.find pos (elt_key e)) in
  let values : (int, lit array) Hashtbl.t = Hashtbl.create 997 in
  let get s =
    match Hashtbl.find_opt values (Signal.uid s) with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Strash.frame: signal #%d evaluated out of order"
           (Signal.uid s))
  in
  let read_mem m addr =
    let width = Signal.memory_width m in
    let result = ref (constant t (Bits.zero width)) in
    for i = Signal.memory_size m - 1 downto 0 do
      let word = state_of (Mem_word (m, i)) in
      let hit = eq_const t addr i in
      result := Array.map2 (fun d1 d0 -> smux t hit d1 d0) word !result
    done;
    !result
  in
  let encode s =
    match Signal.prim s with
    | Signal.Const b -> constant t b
    | Signal.Input name -> (
      let v = inputs name in
      if Array.length v <> Signal.width s then
        invalid_arg
          (Printf.sprintf "Strash.frame: input %s width mismatch" name);
      v)
    | Signal.Op2 (op, a, b) -> (
      let a = get a and b = get b in
      match op with
      | Signal.Add -> add_vec t a b
      | Signal.Sub -> sub_vec t a b
      | Signal.Mul -> mul_vec t a b
      | Signal.And -> Array.map2 (sand t) a b
      | Signal.Or -> Array.map2 (sor t) a b
      | Signal.Xor -> Array.map2 (sxor t) a b
      | Signal.Eq -> [| lits_equal t a b |]
      | Signal.Lt -> [| lt_vec t a b |])
    | Signal.Not a -> Array.map snot (get a)
    | Signal.Concat parts -> Array.concat (List.rev_map get parts)
    | Signal.Select { src; high; low } -> Array.sub (get src) low (high - low + 1)
    | Signal.Mux { select; cases } -> mux_cases t (get select) (List.map get cases)
    | Signal.Reg _ -> state_of (Reg_state s)
    | Signal.Mem_read_sync _ -> state_of (Read_state s)
    | Signal.Mem_read_async { memory; addr } -> read_mem memory (get addr)
    | Signal.Wire { driver = Some d } -> get d
    | Signal.Wire { driver = None } -> invalid_arg "Strash.frame: undriven wire"
  in
  List.iter
    (fun s -> Hashtbl.replace values (Signal.uid s) (encode s))
    (Circuit.signals circuit);
  let control opt ~default =
    match opt with Some c -> bool_of_vec t (get c) | None -> default
  in
  let next =
    Array.map
      (fun e ->
        let cur = state_of e in
        match e with
        | Reg_state s -> (
          match Signal.prim s with
          | Signal.Reg { d; enable; clear; clear_to; init = _ } ->
            let dl = get d in
            let en = control enable ~default:lit_true in
            let cl = control clear ~default:lit_false in
            let ct = constant t clear_to in
            Array.init (Array.length cur) (fun i ->
                smux t cl ct.(i) (smux t en dl.(i) cur.(i)))
          | _ -> assert false)
        | Read_state s -> (
          match Signal.prim s with
          | Signal.Mem_read_sync { memory; addr; enable } ->
            let en = control enable ~default:lit_true in
            let now = read_mem memory (get addr) in
            Array.init (Array.length cur) (fun i ->
                smux t en now.(i) cur.(i))
          | _ -> assert false)
        | Mem_word (m, w) ->
          List.fold_left
            (fun acc (en, addr, data) ->
              let hit =
                sand t (bool_of_vec t (get en)) (eq_const t (get addr) w)
              in
              Array.map2 (fun d a -> smux t hit d a) (get data) acc)
            cur
            (Signal.memory_write_ports m))
      elts
  in
  let outputs =
    List.map (fun (name, s) -> (name, get s)) (Circuit.outputs circuit)
  in
  { value = get; outputs; next }

let num_nodes t = t.n
