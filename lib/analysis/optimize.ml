(** The certificate-gated guard optimizer — the [O_aggressive] tier.

    Three transforms beyond the local {!Passes.Guard_elim} /
    {!Passes.Guard_hoist} pair:

    - {b interprocedural elimination}: guards whose coverage a callee
      already established ({!Summaries}) or an earlier guard already
      proved ({!Guard_cover}, including the loop-range widening below)
      are deleted. Only guards the certifier marks [gs_redundant] go: a
      redundant guard re-checks bytes an equally-or-more-demanding
      check already passed with no intervening policy mutation, so its
      deletion preserves the allow/deny decision stream exactly, under
      any policy.

    - {b loop hoist-widening}: a per-iteration guard on
      [base + i*scale] inside a counted loop ({!Range}) is subsumed by
      one pre-header guard over the whole footprint
      [base + lo*scale .. base + hi*scale + size). Emitted only when
      [scale <= size] (the footprint is contiguous — no gap-filling)
      and no call in the loop can mutate the policy. The per-iteration
      guard itself is then removed by the elimination step, whose
      analysis re-proves the widened guard covers every iteration.

    - {b guard coalescing} ({!Passes.Guard_coalesce}): adjacent or
      overlapping byte guards on one base merge into one wider guard.

    Widening and coalescing check a contiguous superset of the original
    bytes; under an object-granular policy (one allocation never spans
    regions of differing protection) their decisions are identical to
    the originals', and denials can only move earlier (fail-stop). See
    DESIGN.md, "certified optimization contract".

    The whole pass is {b certificate-gated}: it stamps the module
    "aggressive" (signed metadata — this is what licenses the
    certifier's interprocedural reasoning), transforms, and then runs
    {!Certify.certify}. If certification fails, the module is restored
    to its pre-pass state instruction for instruction and the pass
    reports the refusal — an optimizer bug can produce a slow module,
    never an unguarded one. If it succeeds, the proof is offered to the
    pipeline's certify pass ({!Certify.offer}), which reuses it when
    nothing the proof depends on changed in between.

    The analyses of one run share a {!Certify.memo}: each one re-solves
    only the functions the steps before it rewrote, and the callers
    whose callee summaries moved. *)

open Kir.Types
module GC = Guard_cover

(* -- snapshot / restore -------------------------------------------- *)

type snapshot = {
  sn_funcs : (func * block list * (block * instr list * terminator) list) list;
  sn_meta : (string * string) list;
}

let snapshot (m : modul) : snapshot =
  {
    sn_funcs =
      List.map
        (fun f ->
          (f, f.blocks, List.map (fun b -> (b, b.body, b.term)) f.blocks))
        m.funcs;
    sn_meta = m.meta;
  }

let restore (snap : snapshot) (m : modul) : unit =
  List.iter
    (fun (f, blocks, saved) ->
      List.iter
        (fun (b, body, term) ->
          b.body <- body;
          b.term <- term)
        saved;
      f.blocks <- blocks)
    snap.sn_funcs;
  m.meta <- snap.sn_meta

(* -- interprocedural elimination ----------------------------------- *)

(** Delete every guard the certifier proves redundant. Sound to do in
    one sweep: a guard whose coverage an existing fact subsumes
    contributes no fact of its own ({!Guard_cover.add_fact} drops
    subsumed facts), so surviving facts only ever originate from
    surviving guards (or calls); and accesses the deleted guards
    covered remain covered by the subsuming facts the certifier's
    re-analysis rediscovers. *)
let eliminate ?memo (m : modul) : int =
  let s = Certify.analyze ?memo m in
  let deleted = ref 0 in
  List.iter2
    (fun (f : func) (fs : Certify.func_summary) ->
      let redundant = Hashtbl.create 16 in
      List.iter
        (fun (g : Certify.guard_site) ->
          if g.Certify.gs_redundant then
            Hashtbl.replace redundant g.Certify.gs_iid ())
        fs.Certify.fs_guards;
      if Hashtbl.length redundant > 0 then begin
        (* function-wide instruction ids count off in block order,
           exactly as the certifier assigned them *)
        let iid = ref 0 in
        List.iter
          (fun b ->
            b.body <-
              List.filter
                (fun _ ->
                  let k = !iid in
                  incr iid;
                  if Hashtbl.mem redundant k then begin
                    incr deleted;
                    false
                  end
                  else true)
                b.body)
          f.blocks
      end)
    m.funcs s.Certify.s_funcs;
  !deleted

(* -- loop hoist-widening ------------------------------------------- *)

(** Replace per-iteration guards on [base + i*scale] with one widened
    pre-header guard per distinct footprint. Does not delete the
    per-iteration guards — the following elimination step removes them
    once the certifier's range analysis proves them redundant, so a
    widening the certifier cannot re-prove costs one extra static
    guard but never loses coverage. *)
let widen ~guard_symbol ~(pure : string -> bool) (m : modul) : int =
  let neutral = Summaries.default_neutral in
  let widened = ref 0 in
  let process_func (f : func) =
    let cfg = Kir.Cfg.of_func f in
    let linfo = Passes.Loops.compute cfg in
    let ranges = Range.analyze_func cfg linfo in
    match Range.loop_bounds ranges with
    | [] -> ()
    | lbs ->
      let taken = Passes.Guard_coalesce.all_regs f in
      let fresh_ctr = ref 0 in
      let fresh_reg () =
        let rec go () =
          incr fresh_ctr;
          let r = Printf.sprintf "%%__gw%d" !fresh_ctr in
          if Hashtbl.mem taken r then go ()
          else begin
            Hashtbl.replace taken r ();
            r
          end
        in
        go ()
      in
      let labels = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace labels b.b_label ()) f.blocks;
      let fresh_label base =
        let rec go k =
          let l = Printf.sprintf "%s.widen%d" base k in
          if Hashtbl.mem labels l then go (k + 1)
          else begin
            Hashtbl.replace labels l ();
            l
          end
        in
        go 0
      in
      List.iter
        (fun (lb : Range.loop_bound) ->
          match
            List.find_opt
              (fun (l : Passes.Loops.loop) ->
                l.Passes.Loops.header = lb.Range.lb_header)
              linfo.Passes.Loops.loops
          with
          | None -> ()
          | Some l ->
            let loop_blocks =
              List.map (Kir.Cfg.block cfg) l.Passes.Loops.body
            in
            (* no call in the loop may reach the policy module: only the
               guard family and provably policy-pure functions *)
            let calls_ok =
              List.for_all
                (fun b ->
                  List.for_all
                    (function
                      | Call { callee; _ } ->
                        callee = guard_symbol || neutral callee
                        || pure callee
                      | Callind _ | Inline_asm _ -> false
                      | _ -> true)
                    b.body)
                loop_blocks
            in
            if calls_ok then begin
              let defined =
                Passes.Guard_hoist.regs_defined_in_blocks loop_blocks
              in
              let invariant = function
                | Imm _ | Sym _ -> true
                | Reg r -> not (Hashtbl.mem defined r)
              in
              (* candidate footprints: guard on a register whose latest
                 in-block def is [gep base, i, scale] with the induction
                 register untouched in between, base loop-invariant and
                 the stride within the access width (contiguous union) *)
              let cands = ref [] in
              List.iter
                (fun bi ->
                  let arr = Array.of_list (Kir.Cfg.block cfg bi).body in
                  Array.iteri
                    (fun j ins ->
                      match
                        Passes.Guard_coalesce.parse_guard ~guard_symbol ins
                      with
                      | Some (Reg a, size, flags, site) -> (
                        let dj = ref (-1) in
                        for k = 0 to j - 1 do
                          if def_of_instr arr.(k) = Some a then dj := k
                        done;
                        if !dj >= 0 then
                          match arr.(!dj) with
                          | Gep { base; idx = Reg ir; scale; _ }
                            when ir = lb.Range.lb_reg
                                 && scale > 0 && scale <= size
                                 && invariant base ->
                            let clean = ref true in
                            for k = !dj + 1 to j - 1 do
                              if def_of_instr arr.(k) = Some ir then
                                clean := false
                            done;
                            if !clean then
                              cands := (base, scale, size, flags, site) :: !cands
                          | _ -> ())
                      | _ -> ())
                    arr)
                lb.Range.lb_body;
              let seen = Hashtbl.create 8 in
              let cands =
                List.filter
                  (fun (base, scale, size, flags, _) ->
                    let k = (base, scale, size, flags) in
                    if Hashtbl.mem seen k then false
                    else begin
                      Hashtbl.replace seen k ();
                      true
                    end)
                  (List.rev !cands)
              in
              if cands <> [] then begin
                let pre =
                  if lb.Range.lb_split then
                    (* the unique outside predecessor also branches
                       elsewhere: split the entry edge so the widened
                       guard runs only when the loop actually runs *)
                    let target =
                      (Kir.Cfg.block cfg lb.Range.lb_header).b_label
                    in
                    let pred_l =
                      (Kir.Cfg.block cfg lb.Range.lb_preheader).b_label
                    in
                    Kir.Cfg.insert_preheader f ~target ~preds:[ pred_l ]
                      ~fresh:(fresh_label target)
                  else Kir.Cfg.block cfg lb.Range.lb_preheader
                in
                List.iter
                  (fun (base, scale, size, flags, site) ->
                    let r = fresh_reg () in
                    let span =
                      ((lb.Range.lb_hi - lb.Range.lb_lo) * scale) + size
                    in
                    let args =
                      if site < 0 then [ Reg r; Imm span; Imm flags ]
                      else [ Reg r; Imm span; Imm flags; Imm site ]
                    in
                    pre.body <-
                      pre.body
                      @ [
                          Gep
                            {
                              dst = r;
                              base;
                              idx = Imm lb.Range.lb_lo;
                              scale;
                            };
                          Call { dst = None; callee = guard_symbol; args };
                        ];
                    incr widened)
                  cands
              end
            end)
        lbs
  in
  List.iter process_func m.funcs;
  !widened

(* -- the pass ------------------------------------------------------ *)

let coalesce ~guard_symbol m =
  let r = Passes.Guard_coalesce.run ~guard_symbol m in
  match List.assoc_opt "guards_merged" r.Passes.Pass.remarks with
  | Some n -> int_of_string n
  | None -> 0

let run (m : modul) : Passes.Pass.result =
  if meta_find m Passes.Guard_injection.meta_guarded <> Some "true" then
    Passes.Pass.fail "guard-optimize" "module %s is not guarded" m.m_name;
  let guard_symbol =
    match meta_find m Passes.Guard_injection.meta_guard_symbol with
    | Some s -> s
    | None -> Passes.Guard_injection.guard_symbol_default
  in
  let snap = snapshot m in
  (* the signed level stamp is what licenses the certifier's
     interprocedural reasoning — both for the elimination below and for
     every later re-validation of this module *)
  meta_set m Passes.Guard_injection.meta_opt_level
    (Passes.Pipeline.opt_level_to_string Passes.Pipeline.O_aggressive);
  let memo = Certify.memo () in
  match
    let interproc = eliminate ~memo m in
    let merged = coalesce ~guard_symbol m in
    let pure = Summaries.purity ~guard_symbol m in
    let widened = widen ~guard_symbol ~pure m in
    let narrowed = if widened > 0 then eliminate ~memo m else 0 in
    let merged' = if widened + narrowed > 0 then coalesce ~guard_symbol m else 0 in
    (interproc + narrowed, merged + merged', widened)
  with
  | exception Dataflow.Diverged why ->
    restore snap m;
    {
      Passes.Pass.changed = false;
      remarks = [ ("restored", "analysis diverged: " ^ why) ];
    }
  | eliminated, merged, widened -> (
    match Certify.certify ~memo m with
    | Error reason ->
      (* refuse the transform, not the module *)
      restore snap m;
      { Passes.Pass.changed = false; remarks = [ ("restored", reason) ] }
    | Ok proof ->
      Certify.offer m proof;
      {
        Passes.Pass.changed = eliminated + merged + widened > 0;
        remarks =
          [
            ("guards_eliminated", string_of_int eliminated);
            ("guards_merged", string_of_int merged);
            ("guards_widened", string_of_int widened);
          ];
      })

let pass () = Passes.Pass.make "guard-optimize" run

(* registered like the certifier: linking this library arms the
   aggressive tier of every pipeline *)
let () = Passes.Pipeline.set_optimizer pass
