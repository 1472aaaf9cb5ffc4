(** Interprocedural region summaries.

    For every function of a module, two facts usable at its call sites:

    - {b policy-purity}: the function provably performs no
      policy-mutating operation, transitively — no indirect calls, no
      inline asm, no calls to externs or to impure module functions;
      only the guard family and pure module functions. A call to a
      policy-pure function preserves the caller's coverage facts (it
      cannot reach the policy module, so the table the caller's guards
      checked against is still in force when it returns). Purity is a
      greatest fixpoint: mutually recursive functions that only call
      each other stay pure.

    - {b guarantees}: coverage facts the function establishes on every
      path to every return, expressed over its formal parameters (and
      module symbols). These hold in the caller immediately after the
      call returns — even for an impure callee, because facts that
      survive to its returns postdate its last policy-mutating
      operation by construction (the callee's own analysis kills facts
      at such calls). Guarantees are a least fixpoint from the empty
      summary, so they are always an under-approximation — sound to
      assume, never complete.

    This is what lets the certified optimizer (and the certifier that
    re-checks its output) delete a caller's re-check of a range the
    callee just guarded: e.g. [e1000e_xmit_frame]'s loads of the
    adapter fields that [e1000e_tx_avail] already checked. *)

open Kir.Types
module GC = Guard_cover

type fsum = {
  sm_pure : bool;
  sm_guarantees : (GC.sv * int * int * int) list;
      (** core (over formals/symbols), lo, hi, flags *)
  sm_params : reg list;
}

let default_neutral s =
  s = Passes.Cfi_guard.guard_symbol || s = Passes.Intrinsic_guard.guard_symbol

(* the call effect of [callee] under the summaries in [tbl]: summarized
   for module functions, fully opaque for everything else *)
let effect_of_tbl tbl callee : GC.call_effect =
  match Hashtbl.find_opt tbl callee with
  | None -> GC.opaque_effect
  | Some s ->
    {
      GC.ce_kills = not s.sm_pure;
      ce_adds = s.sm_guarantees;
      ce_params = s.sm_params;
    }

(* -- policy purity: greatest fixpoint ------------------------------ *)

let compute_purity ~guard_symbol ~neutral (m : modul) :
    (string, bool) Hashtbl.t =
  let pure = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace pure f.f_name true) m.funcs;
  let is_pure name = try Hashtbl.find pure name with Not_found -> false in
  let func_ok f =
    List.for_all
      (fun b ->
        List.for_all
          (fun i ->
            match i with
            | Callind _ | Inline_asm _ -> false
            | Call { callee; _ } ->
              callee = guard_symbol || neutral callee || is_pure callee
            | _ -> true)
          b.body)
      f.blocks
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if is_pure f.f_name && not (func_ok f) then begin
          Hashtbl.replace pure f.f_name false;
          changed := true
        end)
      m.funcs
  done;
  pure

(** Policy purity alone, by function name (the guarantees' fixpoint is
    not needed for it). *)
let purity ?(guard_symbol = Passes.Guard_injection.guard_symbol_default)
    (m : modul) : string -> bool =
  let pure = compute_purity ~guard_symbol ~neutral:default_neutral m in
  fun name -> try Hashtbl.find pure name with Not_found -> false

(* -- guarantees: least fixpoint ------------------------------------ *)

(* a core exportable across the call boundary: built only from module
   symbols, immediates and the function's own formals *)
let rec exportable = function
  | GC.S_imm _ | GC.S_sym _ | GC.S_param _ -> true
  | GC.S_gep (b, i, _) -> exportable b && exportable i
  | GC.S_undef _ | GC.S_def _ | GC.S_merge _ -> false

(** One function's guard-coverage dataflow problem and its solution
    under one {!Guard_cover.ctx}. Instruction ids are function-wide, in
    block-array order: block [i]'s first instruction has id
    [iid_base.(i)]. *)
type solved = {
  sv_id : int;  (** distinct for every solve *)
  sv_func : func;
  cfg : Kir.Cfg.t;
  bodies : instr array array;
  iid_base : int array;
  sol : (GC.t Dataflow.solution, string) result;
      (** [Error why]: the solver raised [Dataflow.Diverged why] *)
}

type t = {
  tbl : (string, fsum) Hashtbl.t;
  ctx : GC.ctx;
  last : (string, func * int) Hashtbl.t;
      (** the id of every function's last solve, under [ctx] *)
  kept : (string, solved) Hashtbl.t;
      (** those last solves made by this fixpoint rather than reused *)
}

let solves = ref 0

(** Function solves since program start; a from-scratch proof performs
    at least one per function. *)
let solve_count () = !solves

let solve_func ~ctx (f : func) : solved =
  incr solves;
  let sv_id = !solves in
  let cfg = Kir.Cfg.of_func f in
  let bodies = Array.map (fun b -> Array.of_list b.body) cfg.Kir.Cfg.blocks in
  let n = Kir.Cfg.n_blocks cfg in
  let iid_base = Array.make (max n 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i body ->
      iid_base.(i) <- !total;
      total := !total + Array.length body)
    bodies;
  let block_transfer ~block t =
    snd
      (Array.fold_left
         (fun (iid, t) ins -> (iid + 1, GC.transfer_instr ctx ~iid t ins))
         (iid_base.(block), t)
         bodies.(block))
  in
  let domain =
    {
      Dataflow.entry = GC.entry_of_params f.params;
      equal = GC.equal;
      join = GC.join;
      transfer = block_transfer;
    }
  in
  let sol =
    match Dataflow.solve domain cfg with
    | exception Dataflow.Diverged why -> Error why
    | sol -> Ok sol
  in
  { sv_id; sv_func = f; cfg; bodies; iid_base; sol }

(* facts holding at the end of every reachable Ret block, exported; a
   diverged solve guarantees nothing *)
let ret_facts (s : solved) : (GC.sv * int * int * int) list =
  match s.sol with
  | Error _ -> []
  | Ok sol -> (
    let rets = ref [] in
    Array.iteri
      (fun i out ->
        match ((Kir.Cfg.block s.cfg i).term, out) with
        | Ret _, Some t -> rets := t :: !rets
        | _ -> ())
      sol.Dataflow.block_out;
    match !rets with
    | [] -> []
    | t0 :: rest ->
      let facts =
        List.fold_left
          (fun acc (t : GC.t) -> GC.inter_facts acc t.GC.facts)
          t0.GC.facts rest
      in
      GC.SvMap.fold
        (fun core fs acc ->
          if exportable core then
            List.fold_left
              (fun acc (f : GC.fact) ->
                (core, f.GC.lo, f.GC.hi, f.GC.flags) :: acc)
              acc fs
          else acc)
        facts []
      |> List.sort compare)

(** Solves carried from one analysis of a module to the next while an
    optimizer rewrites it. A function's last solve stands when the
    function, its blocks, bodies and terminators are physically the
    ones it was
    solved over (KIR instructions are immutable, so a rewrite always
    replaces a body list) and every in-module callee's call effect
    equals the one it was solved under. Only the solve's id and return
    facts are kept, not the solution: what a caller derived from the
    solution it keeps itself, under the id. *)
type memo_entry = {
  e_func : func;
  e_guard_symbol : string;
  e_blocks : block list;
  e_code : (instr list * terminator) list;
  e_effects : GC.call_effect list;  (** per callee, as in [callees] *)
  e_id : int;
  e_facts : (GC.sv * int * int * int) list;
}

type memo = (string, memo_entry) Hashtbl.t

let memo () : memo = Hashtbl.create 32

(* module functions callee-first: DFS postorder of the in-module call
   graph, roots in module order; members of a call cycle come out in
   DFS order *)
let callee_first (callees : int list array) : int array =
  let seen = Array.make (Array.length callees) false in
  let order = ref [] in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit callees.(i);
      order := i :: !order
    end
  in
  Array.iteri (fun i _ -> visit i) callees;
  Array.of_list (List.rev !order)

(** Compute the module's summaries to fixpoint.

    Functions are solved callee-first, and a function is solved again
    only when the guarantees of a callee changed after its last solve,
    so a module without call cycles solves each function once. The
    last solution of every function is kept: at the fixpoint it was
    computed under the final summaries, which is what {!solution} hands
    to the certifier. The total solve budget is [n + 2] sweeps' worth
    ([n * (n + 2)] solves); a module that exhausts it keeps no
    solutions, and its summaries stand as they are. With [memo], a
    solve from an earlier analysis stands in for a new one when it
    still applies ({!solve_id} then names it, and {!solution} has
    nothing), and every new solve is recorded there. *)
let compute ?memo ?(guard_symbol = Passes.Guard_injection.guard_symbol_default)
    ?(neutral = default_neutral) (m : modul) : t =
  let pure = compute_purity ~guard_symbol ~neutral m in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.f_name
        {
          sm_pure = (try Hashtbl.find pure f.f_name with Not_found -> false);
          sm_guarantees = [];
          sm_params = List.map fst f.params;
        })
    m.funcs;
  let ctx = { GC.guard_symbol; neutral; call_effect = effect_of_tbl tbl } in
  let t = { tbl; ctx; last = Hashtbl.create 16; kept = Hashtbl.create 16 } in
  let funcs = Array.of_list m.funcs in
  let n = Array.length funcs in
  let by_name = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace by_name f.f_name i) funcs;
  (* callees.(i): the distinct module functions i calls, first call
     first; callers.(j): the functions whose solve reads j's summary *)
  let callees = Array.make n [] and callers = Array.make n [] in
  Array.iteri
    (fun i f ->
      List.iter
        (fun b ->
          List.iter
            (function
              | Call { callee; _ } -> (
                match Hashtbl.find_opt by_name callee with
                | Some j when not (List.mem j callees.(i)) ->
                  callees.(i) <- j :: callees.(i);
                  callers.(j) <- i :: callers.(j)
                | _ -> ())
              | _ -> ())
            b.body)
        f.blocks;
      callees.(i) <- List.rev callees.(i))
    funcs;
  let order = callee_first callees in
  let effects i =
    List.map (fun j -> ctx.GC.call_effect funcs.(j).f_name) callees.(i)
  in
  (* a solve's id and return facts, and the solution unless reused *)
  let solve i =
    let f = funcs.(i) in
    let fresh () =
      let s = solve_func ~ctx f in
      (s.sv_id, ret_facts s, Some s)
    in
    match memo with
    | None -> fresh ()
    | Some memo -> (
      match Hashtbl.find_opt memo f.f_name with
      | Some e
        when e.e_func == f && e.e_blocks == f.blocks
             && e.e_guard_symbol = guard_symbol
             && List.for_all2
                  (fun b (body, term) -> b.body == body && b.term == term)
                  f.blocks e.e_code
             && e.e_effects = effects i ->
        (e.e_id, e.e_facts, None)
      | _ ->
        let ((id, facts, _) as r) = fresh () in
        Hashtbl.replace memo f.f_name
          {
            e_func = f;
            e_guard_symbol = guard_symbol;
            e_blocks = f.blocks;
            e_code = List.map (fun b -> (b.body, b.term)) f.blocks;
            e_effects = effects i;
            e_id = id;
            e_facts = facts;
          };
        r)
  in
  let last = Array.make n None in
  let dirty = Array.make n true in
  let pending = ref n in
  let budget = ref (n * (n + 2)) in
  while !pending > 0 && !budget > 0 do
    Array.iter
      (fun i ->
        if dirty.(i) && !budget > 0 then begin
          dirty.(i) <- false;
          decr pending;
          decr budget;
          let ((_, g, _) as s) = solve i in
          last.(i) <- Some s;
          let name = funcs.(i).f_name in
          let sm = Hashtbl.find tbl name in
          if g <> sm.sm_guarantees then begin
            Hashtbl.replace tbl name { sm with sm_guarantees = g };
            List.iter
              (fun c ->
                if not dirty.(c) then begin
                  dirty.(c) <- true;
                  incr pending
                end)
              callers.(i)
          end
        end)
      order
  done;
  (* duplicate names would let two functions share one summary slot *)
  if !pending = 0 && Hashtbl.length by_name = n then
    Array.iteri
      (fun i -> function
        | Some (id, _, sv) ->
          let f = funcs.(i) in
          Hashtbl.replace t.last f.f_name (f, id);
          Option.iter (fun sv -> Hashtbl.replace t.kept f.f_name sv) sv
        | None -> ())
      last;
  t

(** The {!Guard_cover.ctx} the summaries were computed under; its call
    effects read the final summaries. *)
let ctx (t : t) = t.ctx

(** The id of [f]'s last solve under {!ctx}, if the fixpoint converged. *)
let solve_id (t : t) (f : func) : int option =
  match Hashtbl.find_opt t.last f.f_name with
  | Some (f', id) when f' == f -> Some id
  | _ -> None

(** [f]'s last solution under {!ctx}, if this fixpoint made it. *)
let solution (t : t) (f : func) : solved option =
  match Hashtbl.find_opt t.kept f.f_name with
  | Some s when s.sv_func == f -> Some s
  | _ -> None

let is_pure (t : t) name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s.sm_pure
  | None -> false

let guarantees (t : t) name =
  match Hashtbl.find_opt t.tbl name with
  | Some s -> s.sm_guarantees
  | None -> []
