(** The simulated core kernel: address space, symbol table, module loader
    with load-time signature validation, character devices (ioctl), and
    panic semantics.

    The kernel is "core" in the paper's sense: it is trusted, its own code
    is never guarded, and it is what CARAT KOP protects. Kernel modules
    written in KIR execute through a pluggable [runner] (installed by the
    VM layer, keeping the library dependency graph acyclic) and access
    memory through {!read} and {!write}, which translate virtual
    addresses, dispatch MMIO, and charge the machine cost model. *)

(* Re-exported submodules: [kernel.ml] is the library's entry module, so
   these aliases are how users reach the layout constants, the physical
   memory, and the log. *)
module Layout = Layout
module Memory = Memory
module Klog = Klog
module Watchdog = Watchdog

type panic_info = {
  reason : string;
  log_tail : string list;
  diag : string list;
      (** subsystem-supplied diagnostic attachments captured at panic
          time (e.g. the policy module's guard-trace tail), printed with
          the crash report but kept out of the one-line reason *)
}

exception Panic of panic_info

type mmio_region = {
  mmio_name : string;
  mmio_virt : int;
  mmio_size : int;
  mmio_read : int -> int -> int;  (** offset, size -> value *)
  mmio_write : int -> int -> int -> unit;  (** offset, size, value *)
}

type mapping = { map_virt : int; map_size : int; map_phys : int }

(** Record of a containment event. One is created per quarantined module
    and stays behind (indexed by the module's former symbols) so later
    callers get a diagnosable -EIO instead of a missing-symbol panic. *)
type quarantine_record = {
  q_module : string;
  q_reason : string;
  mutable q_rejected_calls : int;
      (** calls bounced off the quarantined module after containment *)
}

type loaded_module = {
  lm_name : string;
  lm_kir : Kir.Types.modul;
  lm_globals : (string * int) list;  (** global name -> virtual address *)
  mutable lm_state : [ `Live | `Dead | `Quarantined ];
  mutable lm_locks_held : int;
  mutable lm_quarantine : quarantine_record option;
}

type symbol =
  | Native of (t -> int array -> int)
  | Kir_func of loaded_module * Kir.Types.func
  | Data of int

and t = {
  mem : Memory.t;
  phys_size : int;
  mutable machine : Machine.Model.t;
      (** the machine model cycles are charged to. Single-CPU runs never
          reassign it; the SMP scheduler swaps in the running CPU's
          model on every context switch (each simulated CPU owns private
          caches, predictor and clock). *)
  rng : Machine.Rng.t;
  log : Klog.t;
  symbols : (string, symbol) Hashtbl.t;
  mutable modules : loaded_module list;
  devices : (string, t -> cmd:int -> arg:int -> int) Hashtbl.t;
  mutable mmio : mmio_region list;
  mutable mappings : mapping list;
  mutable kmalloc_next : int;  (** physical bump pointer *)
  mutable module_virt_next : int;
  mutable user_virt_next : int;
  mutable current_module : loaded_module option;
  mutable panicked : panic_info option;
  mutable quarantined : quarantine_record list;  (** newest first *)
  quarantined_symbols : (string, quarantine_record) Hashtbl.t;
      (** former exports of quarantined modules: calls return {!eio} *)
  mutable quarantine_hooks : (t -> loaded_module -> unit) list;
      (** run at containment time; kernel services register these to
          cancel the module's pending callbacks (timers, queues, ...) *)
  mutable load_hooks : (t -> loaded_module -> unit) list;
      (** run after a module is published but before its [init_module]:
          the VM's compiled engine registers one to closure-compile the
          module's functions at load time *)
  mutable require_signature : bool;
  mutable require_certificate : bool;
      (** also demand a valid guard-completeness certificate
          ({!Analysis.Certify}) at insmod; off by default so baseline
          (uncertified) modules still load in permissive setups *)
  signing_key : string;
  runner : (t -> loaded_module -> Kir.Types.func -> int array -> int) option ref;
  addr_to_symbol : (int, string) Hashtbl.t;
      (** reverse map for synthetic function addresses (indirect calls) *)
  overlapped_natives : (string, unit) Hashtbl.t;
      (** natives whose whole invocation (call overhead included) is
          off the critical path and discounted by speculative overlap —
          the guard function is the canonical case *)
  mutable symbol_gen : int;
      (** bumped on every symbol-table mutation (register, insmod, rmmod,
          quarantine): callers holding a {!resolved} target revalidate
          against this generation instead of re-hashing the name *)
  mutable last_mapping : mapping;
      (** one-entry translation cache in front of the [mappings] scan;
          mappings are append-only, so a cached entry can never go stale *)
  (* privileged machine state reachable only through intrinsics *)
  msrs : (int, int) Hashtbl.t;
  mutable irqs_enabled : bool;
  (* heap sanitizer state. Allocation *tracking* is always on (cheap
     host-side bookkeeping, no simulated cost) so any report can name
     the allocation an address belongs to; redzones, freed-state poison,
     quarantined reuse and per-access shadow checks only engage once
     {!enable_sanitizer} flips [sanitize] *)
  shadow : Sanitizer.Shadow.t;
  mutable sanitize : bool;
  mutable kfree_list : (int * int) list;
      (** reclaimable raw heap blocks (virt base, len), newest first *)
  mutable san_reports : san_report list;  (** newest first, capped *)
  mutable san_count : int;
  mutable access_probe : (addr:int -> size:int -> write:bool -> unit) option;
      (** observation-only hook on module-context reads/writes; charges
          no simulated cycles (the SMP race detector taps it) *)
}

and san_report = {
  sr_kind : string;  (** "oob" | "uaf" | "double-free" | "invalid-free" | "deny" *)
  sr_addr : int;
  sr_size : int;
  sr_write : bool;
  sr_module : string option;  (** faulting module, when one was current *)
  sr_attribution : string option;
      (** the owning/nearest allocation, human-readable, with offset *)
  sr_site : string;  (** the faulting context's description *)
}

type load_error =
  | Verification_failed of string
  | Signature_rejected of Passes.Signing.verify_error
  | Certificate_rejected of Analysis.Certify.validate_error
  | Symbol_collision of string
  | Unresolved_import of string
  | Kernel_is_panicked

let load_error_to_string = function
  | Verification_failed s -> "IR verification failed: " ^ s
  | Signature_rejected e ->
    "signature rejected: " ^ Passes.Signing.verify_error_to_string e
  | Certificate_rejected e ->
    "certificate rejected: " ^ Analysis.Certify.validate_error_to_string e
  | Symbol_collision s -> "symbol collision on " ^ s
  | Unresolved_import s -> "unresolved import " ^ s
  | Kernel_is_panicked -> "kernel has panicked"

exception Fault of { addr : int; size : int; what : string }

(** What calls into a quarantined module return: -EIO in spirit. *)
let eio = -5

(* typed ioctl/device error codes, -E* in spirit, so device handlers can
   reject malformed arguments distinguishably instead of a blanket -1 *)
let einval = -22 (* malformed argument (bad flags, negative size, ...) *)
let enotty = -25 (* unknown ioctl command for this device *)
let enospc = -28 (* no space: policy table / domain capacity exhausted *)
let erange = -34 (* argument out of the representable/supported range *)

exception Quarantine_trap of loaded_module
(** Raised by the policy module (Quarantine enforcement mode) from guard
    context inside the offending module; {!call_symbol} catches it at the
    kernel→module boundary and converts the in-flight call to {!eio}, so
    the kernel itself keeps running. *)

(* ------------------------------------------------------------------ *)

let panic ?(diag = []) t reason =
  match t.panicked with
  | Some original ->
    (* Idempotent: a second panic (raised while handling the first, or by
       later activity on a dead kernel) must not clobber the first-fault
       record — that record is the diagnosis. *)
    Klog.log t.log Klog.Crit
      "Kernel panic - not syncing: %s (during panic: %s)" original.reason
      reason;
    raise (Panic original)
  | None ->
    let info = { reason; log_tail = Klog.tail t.log 16; diag } in
    Klog.log t.log Klog.Crit "Kernel panic - not syncing: %s" reason;
    t.panicked <- Some info;
    raise (Panic info)

let check_alive t = if t.panicked <> None then panic t "action on dead kernel"

(* ------------------------------------------------------------------ *)
(* address translation *)

let kernel_image_phys_size = Layout.kernel_text_size + Layout.kernel_data_size

(* [addr, addr + size) lies in [base, base + len). No sum can wrap:
   [addr + size] would for an address near [max_int]. *)
let within ~base ~len addr size =
  addr >= base && addr <= base + len && size <= base + len - addr

(* [translate]'s first arm, on its own so that {!read} and {!write} can
   take it without building a [`Phys] block per access *)
let in_direct_map t addr size =
  within ~base:Layout.direct_map_base ~len:t.phys_size addr size

let translate t addr size :
    [ `Phys of int | `Mmio of mmio_region * int | `Fault ] =
  if in_direct_map t addr size then `Phys (addr - Layout.direct_map_base)
  else if
    within ~base:Layout.kernel_text_base ~len:kernel_image_phys_size addr size
  then `Phys (addr - Layout.kernel_text_base)
  else begin
    let lm = t.last_mapping in
    if within ~base:lm.map_virt ~len:lm.map_size addr size then
      `Phys (lm.map_phys + (addr - lm.map_virt))
    else
    match
      List.find_opt
        (fun m -> within ~base:m.map_virt ~len:m.map_size addr size)
        t.mappings
    with
    | Some m ->
      t.last_mapping <- m;
      `Phys (m.map_phys + (addr - m.map_virt))
    | None -> (
      match
        List.find_opt
          (fun r -> within ~base:r.mmio_virt ~len:r.mmio_size addr size)
          t.mmio
      with
      | Some r -> `Mmio (r, addr - r.mmio_virt)
      | None -> `Fault)
  end

(* --------------------------------------------------------------- *)
(* heap sanitizer: report plumbing and the per-access shadow check *)

(** Simulated cost of one shadow lookup on a checked access — the
    KASAN-style pay-for-what-you-use overhead, charged only while the
    sanitizer is enabled. *)
let san_check_cycles = 7

let san_site t =
  match t.current_module with Some lm -> lm.lm_name | None -> "kernel"

let format_san_report r =
  Printf.sprintf "kasan[%s]: %s of %d bytes at 0x%x by %s%s" r.sr_kind
    (if r.sr_write then "write" else "read")
    r.sr_size r.sr_addr
    (match r.sr_module with Some m -> "module " ^ m | None -> r.sr_site)
    (match r.sr_attribution with Some a -> " -> " ^ a | None -> "")

let record_san ?alloc t ~kind ~addr ~size ~write =
  let attribution =
    match alloc with
    | Some (a, off) ->
      Some
        (Printf.sprintf "%s, offset %d" (Sanitizer.Shadow.describe a) off)
    | None -> (
      match Sanitizer.Shadow.attribute t.shadow addr with
      | Some (a, off) ->
        Some
          (Printf.sprintf "%s, offset %d" (Sanitizer.Shadow.describe a) off)
      | None -> None)
  in
  let r =
    {
      sr_kind = kind;
      sr_addr = addr;
      sr_size = size;
      sr_write = write;
      sr_module = Option.map (fun lm -> lm.lm_name) t.current_module;
      sr_attribution = attribution;
      sr_site = san_site t;
    }
  in
  t.san_count <- t.san_count + 1;
  if List.length t.san_reports < 128 then begin
    t.san_reports <- r :: t.san_reports;
    Klog.log t.log Klog.Err "KASAN-KOP: %s" (format_san_report r)
  end

(** The at-access hook shared by {!read} and {!write}: feed the
    observation probe (race detection; free) and, with the sanitizer on,
    charge the shadow-lookup cost and report any redzone / freed-memory
    hit *at the faulting access*, with allocation attribution. Reports
    never alter the access's outcome — detection is KASAN-style
    report-and-continue; enforcement stays the guard's job. *)
let san_access t ~addr ~size ~write =
  (match t.access_probe with
  | Some f when t.current_module <> None -> f ~addr ~size ~write
  | _ -> ());
  if t.sanitize then begin
    Machine.Model.add_cycles t.machine san_check_cycles;
    match Sanitizer.Shadow.check t.shadow ~addr ~size with
    | Some (Sanitizer.Shadow.Out_of_bounds a) ->
      record_san t ~kind:"oob" ~addr ~size ~write
        ~alloc:(a, addr - a.Sanitizer.Shadow.base)
    | Some (Sanitizer.Shadow.Use_after_free a) ->
      record_san t ~kind:"uaf" ~addr ~size ~write
        ~alloc:(a, addr - a.Sanitizer.Shadow.base)
    | None -> ()
  end

(** Read simulated memory at a virtual address, charging machine cost.
    This is the path taken by all CPU-side accesses, guarded or not. *)
let read t ~addr ~size =
  san_access t ~addr ~size ~write:false;
  if in_direct_map t addr size then begin
    Machine.Model.load t.machine addr size;
    Memory.read t.mem (addr - Layout.direct_map_base) ~size
  end
  else
  match translate t addr size with
  | `Phys p ->
    Machine.Model.load t.machine addr size;
    Memory.read t.mem p ~size
  | `Mmio (r, off) ->
    Machine.Model.mmio t.machine;
    r.mmio_read off size
  | `Fault -> raise (Fault { addr; size; what = "read" })

let write t ~addr ~size v =
  san_access t ~addr ~size ~write:true;
  if in_direct_map t addr size then begin
    Machine.Model.store t.machine addr size;
    Memory.write t.mem (addr - Layout.direct_map_base) ~size v
  end
  else
  match translate t addr size with
  | `Phys p ->
    Machine.Model.store t.machine addr size;
    Memory.write t.mem p ~size v
  | `Mmio (r, off) ->
    Machine.Model.mmio_write t.machine;
    r.mmio_write off size v
  | `Fault -> raise (Fault { addr; size; what = "write" })

(** Cost-free, translation-only access used by DMA engines: devices reach
    physical memory behind the CPU's back (and behind the guards — the
    paper's point about DMA not being checked). *)
let dma_read t ~addr ~size =
  match translate t addr size with
  | `Phys p -> Memory.read t.mem p ~size
  | `Mmio (r, off) -> r.mmio_read off size
  | `Fault -> raise (Fault { addr; size; what = "dma_read" })

let dma_write t ~addr ~size v =
  match translate t addr size with
  | `Phys p -> Memory.write t.mem p ~size v
  | `Mmio (r, off) -> r.mmio_write off size v
  | `Fault -> raise (Fault { addr; size; what = "dma_write" })

let read_string t ~addr ~len =
  match translate t addr len with
  | `Phys p -> Memory.read_string t.mem ~src:p ~len
  | _ -> raise (Fault { addr; size = len; what = "read_string" })

let write_string t ~addr s =
  match translate t addr (String.length s) with
  | `Phys p -> Memory.blit_string t.mem ~dst:p s
  | _ ->
    raise (Fault { addr; size = String.length s; what = "write_string" })

(* ------------------------------------------------------------------ *)
(* allocation *)

let align_up v a = (v + a - 1) land lnot (a - 1)

(** Allocate [size] bytes of physical memory; returns the physical
    address. There is no free: module lifetimes in the simulation are
    short and leak-free accounting is not the point. *)
let kmalloc_phys t ~size =
  let p = align_up t.kmalloc_next 64 in
  if p + size > t.phys_size then panic t "out of physical memory (kmalloc)";
  t.kmalloc_next <- p + size;
  p

(** Allocate kernel heap memory; returns the direct-map virtual address
    (as Linux's kmalloc does). Every allocation is tracked in the shadow
    allocation table (attribution for sanitizer reports); [tag] names
    the object in those reports. Blocks reclaimed by {!kfree} are reused
    first-fit — the historical bump-only workloads never call kfree, so
    their layout is untouched. With the sanitizer enabled the block
    grows a redzone on each side and the returned pointer stays 64-byte
    aligned. *)
let kmalloc ?(tag = "") t ~size =
  let rz = if t.sanitize then Sanitizer.Shadow.redzone else 0 in
  (* the raw extent a reused block must cover; when bumping fresh memory
     without redzones we advance by [size] exactly, preserving the
     classic allocator's pointer sequence bit-for-bit *)
  let extent = (2 * rz) + align_up size 64 in
  let raw =
    let rec take acc = function
      | (b, l) :: rest when l >= extent ->
        t.kfree_list <- List.rev_append acc rest;
        if l - extent >= 64 then
          t.kfree_list <- (b + extent, l - extent) :: t.kfree_list;
        Some b
      | x :: rest -> take (x :: acc) rest
      | [] -> None
    in
    match take [] t.kfree_list with
    | Some b -> b
    | None ->
      let bump = if rz = 0 then size else extent in
      Layout.direct_map_of_phys (kmalloc_phys t ~size:bump)
  in
  let base = raw + rz in
  ignore
    (Sanitizer.Shadow.track_alloc t.shadow ~base ~size ~lo_rz:rz ~hi_rz:rz
       ~tag ~site:(san_site t)
      : Sanitizer.Shadow.alloc);
  base

type free_error =
  | Free_double of string  (** the block was already freed; describes it *)
  | Free_invalid  (** never an allocation base (or an interior pointer) *)

let free_error_to_string = function
  | Free_double d -> "double free of " ^ d
  | Free_invalid -> "invalid free (never a live allocation)"

(** Free a {!kmalloc} block. Double frees and never-allocated (or
    interior-pointer) frees are *typed* errors, mirroring the ioctl
    layer's -EINVAL/-ERANGE discipline, instead of silent corruption:
    the heap state is untouched and the caller learns which. With the
    sanitizer on the block is poisoned and parked in the reuse
    quarantine; otherwise it returns to the free list immediately. *)
let kfree t ~addr : (unit, free_error) result =
  match Sanitizer.Shadow.free t.shadow ~addr ~site:(san_site t) with
  | Ok (_freed, reclaimed) ->
    t.kfree_list <- reclaimed @ t.kfree_list;
    Ok ()
  | Error (Sanitizer.Shadow.Double_free a) ->
    if t.sanitize then
      record_san t ~kind:"double-free" ~addr ~size:a.Sanitizer.Shadow.size
        ~write:true ~alloc:(a, 0);
    Klog.log t.log Klog.Warn "kfree: double free of 0x%x (%s)" addr
      (Sanitizer.Shadow.describe a);
    Error (Free_double (Sanitizer.Shadow.describe a))
  | Error (Sanitizer.Shadow.Invalid_free interior) ->
    if t.sanitize then
      record_san t ~kind:"invalid-free" ~addr ~size:0 ~write:true
        ?alloc:(Option.map (fun a -> (a, addr - a.Sanitizer.Shadow.base)) interior);
    Klog.log t.log Klog.Warn "kfree: invalid free of 0x%x%s" addr
      (match interior with
      | Some a ->
        Printf.sprintf " (interior pointer into %s)" (Sanitizer.Shadow.describe a)
      | None -> "");
    Error Free_invalid

(** Map [size] bytes into the module area, backed by fresh physical
    memory; returns the module-area virtual address. *)
let module_alloc t ~size =
  let phys = kmalloc_phys t ~size in
  let virt = align_up t.module_virt_next 64 in
  if virt + size > Layout.module_base + Layout.module_area_size then
    panic t "module area exhausted";
  t.module_virt_next <- virt + size;
  t.mappings <- { map_virt = virt; map_size = size; map_phys = phys } :: t.mappings;
  virt

(** Map a user-space buffer (for the user-level test tool). *)
let map_user t ~size =
  let phys = kmalloc_phys t ~size in
  let virt = align_up t.user_virt_next 4096 in
  t.user_virt_next <- virt + size;
  t.mappings <- { map_virt = virt; map_size = size; map_phys = phys } :: t.mappings;
  virt

(** Map a device's register BAR into the MMIO window; returns its virtual
    base (what ioremap would return). *)
let ioremap t ~name ~size ~read:mmio_read ~write:mmio_write =
  let used =
    List.fold_left (fun acc r -> max acc (r.mmio_virt + r.mmio_size)) Layout.mmio_base t.mmio
  in
  let virt = align_up used 4096 in
  if virt + size > Layout.mmio_base + Layout.mmio_area_size then
    panic t "MMIO window exhausted";
  let r = { mmio_name = name; mmio_virt = virt; mmio_size = size; mmio_read; mmio_write } in
  t.mmio <- r :: t.mmio;
  r

(* ------------------------------------------------------------------ *)
(* symbols *)

(* Any mutation of the symbol table invalidates every cached [resolved]
   target in one step; resolving is cheap enough that a global generation
   beats per-name bookkeeping. *)
let bump_symbol_gen t = t.symbol_gen <- t.symbol_gen + 1

let symbol_generation t = t.symbol_gen

let register_symbol t name sym =
  if Hashtbl.mem t.symbols name then Error (Symbol_collision name)
  else begin
    Hashtbl.replace t.symbols name sym;
    bump_symbol_gen t;
    Ok ()
  end

let register_native ?(overlapped = false) t name fn =
  Hashtbl.replace t.symbols name (Native fn);
  if overlapped then Hashtbl.replace t.overlapped_natives name ()
  else Hashtbl.remove t.overlapped_natives name;
  bump_symbol_gen t

let lookup_symbol t name = Hashtbl.find_opt t.symbols name

(** Address of a data symbol or function "address" for [Sym] operands.
    Functions get synthetic addresses in the text range so that taking a
    function's address and comparing it works. *)
let symbol_address t name =
  match lookup_symbol t name with
  | Some (Data addr) -> Some addr
  | Some (Kir_func _) | Some (Native _) ->
    (* synthetic, stable text address derived from the name *)
    let h = Hashtbl.hash name land 0xFFFFF in
    let addr = Layout.kernel_text_base + (h * 16) in
    Hashtbl.replace t.addr_to_symbol addr name;
    Some addr
  | None -> None

(** Inverse of {!symbol_address} for function symbols whose address has
    been taken; used to resolve indirect calls. *)
let symbol_of_address t addr = Hashtbl.find_opt t.addr_to_symbol addr

(* ------------------------------------------------------------------ *)
(* quarantine: graceful containment instead of the paper's panic *)

(** Register a containment hook; kernel services (timers, message queues)
    use these to cancel a quarantined module's pending callbacks. *)
let add_quarantine_hook t hook = t.quarantine_hooks <- hook :: t.quarantine_hooks

(** Register a module-load hook, run for each subsequently loaded module
    after its symbols are published and before [init_module] executes. *)
let add_load_hook t hook = t.load_hooks <- hook :: t.load_hooks

(** Isolate [lm] without taking the kernel down: mark it quarantined,
    unlink its exported symbols (later calls fail with {!eio} instead of
    resolving), force-release any kernel locks it holds (its code will
    never run again to release them), and run every registered quarantine
    hook. Idempotent; does nothing for a module that is already dead or
    quarantined. *)
let quarantine_module t (lm : loaded_module) ~reason =
  if lm.lm_state = `Live then begin
    let qr = { q_module = lm.lm_name; q_reason = reason; q_rejected_calls = 0 } in
    lm.lm_state <- `Quarantined;
    lm.lm_quarantine <- Some qr;
    t.quarantined <- qr :: t.quarantined;
    List.iter
      (fun (f : Kir.Types.func) ->
        match Hashtbl.find_opt t.symbols f.Kir.Types.f_name with
        | Some (Kir_func (owner, _)) when owner == lm ->
          Hashtbl.remove t.symbols f.Kir.Types.f_name;
          Hashtbl.replace t.quarantined_symbols f.Kir.Types.f_name qr
        | _ -> ())
      lm.lm_kir.Kir.Types.funcs;
    List.iter
      (fun (name, _) ->
        Hashtbl.remove t.symbols name;
        Hashtbl.replace t.quarantined_symbols name qr)
      lm.lm_globals;
    bump_symbol_gen t;
    if lm.lm_locks_held > 0 then begin
      Klog.log t.log Klog.Warn
        "quarantine %s: force-releasing %d orphaned kernel lock(s)" lm.lm_name
        lm.lm_locks_held;
      lm.lm_locks_held <- 0
    end;
    List.iter (fun hook -> hook t lm) t.quarantine_hooks;
    Klog.log t.log Klog.Err "module %s quarantined: %s" lm.lm_name reason
  end

let quarantine_records t = t.quarantined
let quarantined_symbol t name = Hashtbl.find_opt t.quarantined_symbols name

(** A symbol resolved to a callable target, for call sites that cache
    the resolution. A holder revalidates with {!symbol_generation}
    before each use: any symbol-table mutation (register, insmod, rmmod,
    quarantine) bumps the generation and forces a fresh {!resolve} —
    the same epoch scheme the policy engine's fast tiers use. Data
    symbols, quarantine tombstones and missing names are not cacheable;
    those calls take {!call_symbol} every time. *)
type resolved =
  | R_native of (t -> int array -> int)
  | R_native_overlapped of (t -> int array -> int)
  | R_kir of loaded_module * Kir.Types.func

let resolve t name : resolved option =
  match Hashtbl.find_opt t.symbols name with
  | Some (Native fn) ->
    if Hashtbl.mem t.overlapped_natives name then
      Some (R_native_overlapped fn)
    else Some (R_native fn)
  | Some (Kir_func (lm, f)) -> Some (R_kir (lm, f))
  | Some (Data _) | None -> None

let call_native t fn (args : int array) : int =
  Machine.Model.call t.machine;
  fn t args

(* closure-free overlap bracket: this is the per-guard dispatch path
   and must not allocate. Semantics match [with_overlap], including
   leaving the full cost in place if [fn] raises. *)
let call_native_overlapped t fn (args : int array) : int =
  let t0 = Machine.Model.overlap_start t.machine in
  Machine.Model.call t.machine;
  let r = fn t args in
  Machine.Model.overlap_end t.machine t0;
  r

let call_kir t lm (f : Kir.Types.func) (args : int array) : int =
  Machine.Model.call t.machine;
  match lm.lm_state with
    | `Dead -> panic t (Printf.sprintf "call into unloaded module %s" lm.lm_name)
    | `Quarantined ->
      (* quarantining unlinks the exports, but a stale direct reference
         can still land here *)
      (match lm.lm_quarantine with
      | Some qr -> qr.q_rejected_calls <- qr.q_rejected_calls + 1
      | None -> ());
      Klog.log t.log Klog.Warn "call into quarantined module %s rejected"
        lm.lm_name;
      eio
    | `Live -> (
      match !(t.runner) with
      | Some run -> (
        let saved = t.current_module in
        (* the boundary frame is the outermost frame of [lm]: the caller
           is the kernel or a different module *)
        let boundary =
          match saved with Some prev -> prev != lm | None -> true
        in
        t.current_module <- Some lm;
        match run t lm f args with
        | r ->
          t.current_module <- saved;
          r
        | exception Quarantine_trap qlm when boundary && qlm == lm ->
          (* unwound the whole quarantined module; the call that was in
             flight fails with -EIO and the kernel carries on *)
          t.current_module <- saved;
          Machine.Model.add_cycles t.machine 40 (* error return path *);
          eio
        | exception e ->
          t.current_module <- saved;
          raise e)
      | None -> panic t "no KIR runner installed")

(** Invoke a previously {!resolve}d target. The caller is responsible
    for having revalidated its cache against {!symbol_generation};
    module liveness is still checked on every call, exactly as in
    {!call_symbol}. *)
let call_resolved t (r : resolved) (args : int array) : int =
  check_alive t;
  match r with
  | R_native fn -> call_native t fn args
  | R_native_overlapped fn -> call_native_overlapped t fn args
  | R_kir (lm, f) -> call_kir t lm f args

(** Invoke a symbol as a function with machine call-overhead accounting.
    KIR functions go through the installed runner. Calls that resolve to
    a quarantined module return {!eio} rather than executing. *)
let call_symbol t name (args : int array) : int =
  check_alive t;
  match lookup_symbol t name with
  | Some (Native fn) ->
    if Hashtbl.mem t.overlapped_natives name then
      call_native_overlapped t fn args
    else call_native t fn args
  | Some (Kir_func (lm, f)) -> call_kir t lm f args
  | Some (Data _) ->
    panic t (Printf.sprintf "call to data symbol %s" name)
  | None -> (
    match Hashtbl.find_opt t.quarantined_symbols name with
    | Some qr ->
      (* the symbol existed until its module was quarantined: fail the
         call like an I/O error on a dead device, not a kernel bug *)
      qr.q_rejected_calls <- qr.q_rejected_calls + 1;
      Machine.Model.call t.machine;
      Klog.log t.log Klog.Debug
        "call to %s rejected: module %s is quarantined (%s)" name qr.q_module
        qr.q_reason;
      eio
    | None -> panic t (Printf.sprintf "call to missing symbol %s" name))

(* ------------------------------------------------------------------ *)
(* module loading (insmod / rmmod) *)

let insmod t (km : Kir.Types.modul) : (loaded_module, load_error) result =
  if t.panicked <> None then Error Kernel_is_panicked
  else begin
    let verdict =
      if t.require_signature then
        match Passes.Signing.verify ~key:t.signing_key km with
        | Ok () -> Ok ()
        | Error e -> Error (Signature_rejected e)
      else Ok ()
    in
    match verdict with
    | Error e ->
      Klog.log t.log Klog.Err "insmod %s: %s" km.Kir.Types.m_name
        (load_error_to_string e);
      Error e
    | Ok () -> (
      match Kir.Verify.check_module km with
      | _ :: _ as errs ->
        let msg = Kir.Verify.error_to_string (List.hd errs) in
        Klog.log t.log Klog.Err "insmod %s: %s" km.Kir.Types.m_name msg;
        Error (Verification_failed msg)
      | [] ->
        let cert_verdict =
          if t.require_certificate then
            match Analysis.Certify.validate km with
            | Ok () -> Ok ()
            | Error e -> Error (Certificate_rejected e)
          else Ok ()
        in
        (match cert_verdict with
        | Error e ->
          Klog.log t.log Klog.Err "insmod %s: %s" km.Kir.Types.m_name
            (load_error_to_string e);
          Error e
        | Ok () ->
        (* imports must resolve before anything is published *)
        let missing =
          List.find_opt
            (fun (name, _) -> not (Hashtbl.mem t.symbols name))
            km.Kir.Types.externs
        in
        (match missing with
        | Some (name, _) ->
          Klog.log t.log Klog.Err "insmod %s: unresolved import %s"
            km.Kir.Types.m_name name;
          Error (Unresolved_import name)
        | None ->
          let collision =
            List.find_opt
              (fun (f : Kir.Types.func) -> Hashtbl.mem t.symbols f.f_name)
              km.Kir.Types.funcs
          in
          (match collision with
          | Some f -> Error (Symbol_collision f.Kir.Types.f_name)
          | None ->
            (* allocate and initialize globals *)
            let globals =
              List.map
                (fun (g : Kir.Types.global) ->
                  let virt = module_alloc t ~size:g.g_size in
                  (match g.g_init with
                  | Some init -> write_string t ~addr:virt init
                  | None -> ());
                  (g.g_name, virt))
                km.Kir.Types.globals
            in
            let lm =
              {
                lm_name = km.Kir.Types.m_name;
                lm_kir = km;
                lm_globals = globals;
                lm_state = `Live;
                lm_locks_held = 0;
                lm_quarantine = None;
              }
            in
            List.iter
              (fun (name, addr) ->
                Hashtbl.replace t.symbols name (Data addr))
              globals;
            List.iter
              (fun (f : Kir.Types.func) ->
                Hashtbl.replace t.symbols f.f_name (Kir_func (lm, f)))
              km.Kir.Types.funcs;
            bump_symbol_gen t;
            t.modules <- lm :: t.modules;
            Klog.printk t.log "module %s loaded (%d functions, %d globals)%s"
              lm.lm_name
              (List.length km.Kir.Types.funcs)
              (List.length globals)
              (if Kir.Types.meta_find km Passes.Guard_injection.meta_guarded
                  = Some "true"
               then " [CARAT KOP protected]"
               else "");
            List.iter (fun hook -> hook t lm) (List.rev t.load_hooks);
            (* run the module init if present *)
            (match Kir.Types.find_func km "init_module" with
            | Some _ -> ignore (call_symbol t "init_module" [||])
            | None -> ());
            Ok lm))))
  end

(** [insmod] under its paper name; the syscall the compile→sign→insert
    chain terminates in. *)
let insert_module = insmod

type unload_error = Locks_held of int | Already_dead

(* purge the tombstone symbols a quarantined module left behind, but only
   the ones that still point at *this* module's containment record (a
   replacement loaded and quarantined under the same name owns its own) *)
let purge_quarantined_symbols t (lm : loaded_module) =
  match lm.lm_quarantine with
  | None -> ()
  | Some qr ->
    let doomed =
      Hashtbl.fold
        (fun name qr' acc -> if qr' == qr then name :: acc else acc)
        t.quarantined_symbols []
    in
    List.iter (Hashtbl.remove t.quarantined_symbols) doomed

(** Remove a module. Refuses when the module still holds kernel locks —
    the paper's §3.1 discussion of why forcefully ejecting a running
    module can deadlock the system. Quarantined modules unload without
    running [cleanup_module] (their code is no longer trusted to
    execute); this is the recovery path that frees the name space for a
    repaired replacement. *)
let rmmod t (lm : loaded_module) : (unit, unload_error) result =
  if lm.lm_state = `Dead then Error Already_dead
  else if lm.lm_state = `Quarantined then begin
    purge_quarantined_symbols t lm;
    lm.lm_state <- `Dead;
    t.modules <- List.filter (fun m -> m != lm) t.modules;
    Klog.printk t.log "module %s unloaded (was quarantined; cleanup skipped)"
      lm.lm_name;
    Ok ()
  end
  else if lm.lm_locks_held > 0 then begin
    Klog.log t.log Klog.Warn
      "rmmod %s refused: module holds %d lock(s); forced unload would deadlock"
      lm.lm_name lm.lm_locks_held;
    Error (Locks_held lm.lm_locks_held)
  end
  else begin
    (match Kir.Types.find_func lm.lm_kir "cleanup_module" with
    | Some _ -> ignore (call_symbol t "cleanup_module" [||])
    | None -> ());
    List.iter
      (fun (f : Kir.Types.func) -> Hashtbl.remove t.symbols f.f_name)
      lm.lm_kir.Kir.Types.funcs;
    List.iter (fun (name, _) -> Hashtbl.remove t.symbols name) lm.lm_globals;
    bump_symbol_gen t;
    lm.lm_state <- `Dead;
    t.modules <- List.filter (fun m -> m != lm) t.modules;
    Klog.printk t.log "module %s unloaded" lm.lm_name;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* privileged intrinsics *)

(** The privileged builtins a module can reach without inline assembly
    (paper §5: "any privileged intrinsic or builtin is useable from
    inside of a CARAT KOP protected module"). Executing one is always
    possible — the question the [Intrinsic_guard] extension answers is
    whether the policy lets a given module do so. *)
let known_intrinsics =
  [ "rdtsc"; "rdmsr"; "wrmsr"; "cli"; "sti"; "invlpg"; "pause"; "hlt" ]

let intrinsic_id name =
  let rec go i = function
    | [] -> None
    | n :: _ when n = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 known_intrinsics

let intrinsic_name id = List.nth_opt known_intrinsics id

let read_msr t msr = try Hashtbl.find t.msrs msr with Not_found -> 0
let irqs_enabled t = t.irqs_enabled

(** Execute a privileged intrinsic with kernel-level effect. *)
let exec_intrinsic t ~iname ~(args : int array) : int =
  Machine.Model.add_cycles t.machine 24 (* serializing-ish cost *);
  match (iname, args) with
  | "rdtsc", _ -> Machine.Model.cycles t.machine
  | "rdmsr", [| msr |] -> read_msr t msr
  | "wrmsr", [| msr; v |] ->
    Hashtbl.replace t.msrs msr v;
    Klog.log t.log Klog.Debug "wrmsr 0x%x <- 0x%x" msr v;
    0
  | "cli", _ ->
    t.irqs_enabled <- false;
    0
  | "sti", _ ->
    t.irqs_enabled <- true;
    0
  | "invlpg", [| _addr |] -> 0 (* TLB not modelled; cost already charged *)
  | "pause", _ -> 0
  | "hlt", _ ->
    if t.irqs_enabled then 0
    else panic t "hlt with interrupts disabled: core parked forever"
  | _ ->
    panic t
      (Printf.sprintf "unknown or malformed intrinsic %s/%d" iname
         (Array.length args))

(* ------------------------------------------------------------------ *)
(* character devices & ioctl *)

let register_device t name handler = Hashtbl.replace t.devices name handler

(** User-space ioctl entry point; charges a syscall crossing. *)
let ioctl t ~dev ~cmd ~arg =
  check_alive t;
  Machine.Model.syscall t.machine;
  match Hashtbl.find_opt t.devices dev with
  | Some handler -> handler t ~cmd ~arg
  | None ->
    Klog.log t.log Klog.Warn "ioctl on missing device %s" dev;
    -1 (* -ENODEV in spirit *)

(* ------------------------------------------------------------------ *)
(* native kernel API exposed to modules *)

let install_core_natives t =
  register_native t "printk" (fun t args ->
      match args with
      | [| addr; len |] ->
        Klog.printk t.log "%s" (read_string t ~addr ~len);
        0
      | _ -> panic t "printk: bad arguments");
  register_native t "memcpy" (fun t args ->
      match args with
      | [| dst; src; len |] ->
        Machine.Model.memcpy t.machine ~dst ~src len;
        (match (translate t src len, translate t dst len) with
        | `Phys ps, `Phys pd -> Memory.blit t.mem ~src:ps ~dst:pd ~len
        | _ -> raise (Fault { addr = src; size = len; what = "memcpy" }));
        dst
      | _ -> panic t "memcpy: bad arguments");
  register_native t "memset" (fun t args ->
      match args with
      | [| dst; byte; len |] ->
        Machine.Model.memcpy t.machine ~dst ~src:dst len;
        (match translate t dst len with
        | `Phys pd -> Memory.fill t.mem ~dst:pd ~len (Char.chr (byte land 0xff))
        | _ -> raise (Fault { addr = dst; size = len; what = "memset" }));
        dst
      | _ -> panic t "memset: bad arguments");
  register_native t "kmalloc" (fun t args ->
      match args with
      | [| size |] -> kmalloc t ~size
      | _ -> panic t "kmalloc: bad arguments");
  register_native t "kfree" (fun t args ->
      match args with
      | [| addr |] -> (
        match kfree t ~addr with
        | Ok () -> 0
        | Error (Free_double _) -> eio
        | Error Free_invalid -> einval)
      | _ -> panic t "kfree: bad arguments");
  register_native t "spin_lock" (fun t _args ->
      (match t.current_module with
      | Some lm -> lm.lm_locks_held <- lm.lm_locks_held + 1
      | None -> ());
      Machine.Model.add_cycles t.machine 18;
      0);
  register_native t "spin_unlock" (fun t _args ->
      (match t.current_module with
      | Some lm when lm.lm_locks_held > 0 ->
        lm.lm_locks_held <- lm.lm_locks_held - 1
      | _ -> ());
      Machine.Model.add_cycles t.machine 14;
      0);
  register_native t "ndelay" (fun t args ->
      match args with
      | [| n |] ->
        Machine.Model.add_cycles t.machine
          (int_of_float (float_of_int n *. t.machine.Machine.Model.p.freq_ghz));
        0
      | _ -> panic t "ndelay: bad arguments");
  register_native t "get_cycles" (fun t _ -> Machine.Model.cycles t.machine)

(* ------------------------------------------------------------------ *)

let create ?(phys_size = 64 * 1024 * 1024) ?(require_signature = true)
    ?(require_certificate = false)
    ?(signing_key = Passes.Pipeline.default_key) ?(seed = 42)
    (mparams : Machine.Model.params) : t =
  let t =
    {
      mem = Memory.create ~size:phys_size;
      phys_size;
      machine = Machine.Model.create mparams;
      rng = Machine.Rng.create seed;
      log = Klog.create ();
      symbols = Hashtbl.create 256;
      modules = [];
      devices = Hashtbl.create 8;
      mmio = [];
      mappings = [];
      kmalloc_next = kernel_image_phys_size;
      module_virt_next = Layout.module_base;
      user_virt_next = Layout.user_base;
      current_module = None;
      panicked = None;
      quarantined = [];
      quarantined_symbols = Hashtbl.create 16;
      quarantine_hooks = [];
      load_hooks = [];
      require_signature;
      require_certificate;
      signing_key;
      runner = ref None;
      addr_to_symbol = Hashtbl.create 64;
      overlapped_natives = Hashtbl.create 4;
      symbol_gen = 0;
      last_mapping = { map_virt = -1; map_size = 0; map_phys = 0 };
      msrs = Hashtbl.create 16;
      irqs_enabled = true;
      shadow = Sanitizer.Shadow.create ();
      sanitize = false;
      kfree_list = [];
      san_reports = [];
      san_count = 0;
      access_probe = None;
    }
  in
  install_core_natives t;
  Klog.printk t.log "kernel boot: %s, %d MiB RAM, signature enforcement %s"
    mparams.Machine.Model.name (phys_size / 1024 / 1024)
    (if require_signature then "on" else "off");
  t

let set_runner t run = t.runner := Some run
let machine t = t.machine

(** Swap the machine model cycles are charged to — the SMP scheduler's
    context switch. Memory, symbols, modules and devices stay shared
    (one kernel image); only caches/predictor/clock are per-CPU. *)
let set_machine t m = t.machine <- m
let log t = t.log
let signing_key t = t.signing_key
let set_require_signature t b = t.require_signature <- b
let set_require_certificate t b = t.require_certificate <- b
let memory t = t.mem
let phys_used t = t.kmalloc_next
let current_module t = t.current_module
let panic_state t = t.panicked
let loaded_modules t = t.modules

(* --------------------------------------------------------------- *)
(* sanitizer surface *)

(** Switch on the KASAN-style heap sanitizer: shadow marking for every
    subsequent kmalloc/kfree, redzones, delayed-reuse quarantine, and
    per-access shadow checks (each costing {!san_check_cycles}).
    Idempotent; allocations made before the switch stay unmarked (they
    are still attributable — tracking is always on). *)
let enable_sanitizer t =
  if not t.sanitize then begin
    t.sanitize <- true;
    Sanitizer.Shadow.set_marking t.shadow true;
    Klog.printk t.log "KASAN-KOP: kernel heap sanitizer enabled"
  end

let sanitizer_enabled t = t.sanitize
let shadow t = t.shadow

(** Observation-only hook on module-context memory accesses; the SMP
    layer installs the race detector's probe here. Charges nothing. *)
let set_access_probe t f = t.access_probe <- f

let san_reports t = List.rev t.san_reports
let san_report_count t = t.san_count

(** Attribute a guard denial to the heap object it targeted — called by
    the policy module so every denied access carries "which allocation,
    what offset" in the sanitizer report stream. No-op when the
    sanitizer is off (the deny is still enforced as always). *)
let san_note_deny t ~addr ~size ~write =
  if t.sanitize then record_san t ~kind:"deny" ~addr ~size ~write

(** /proc/carat/san body: sanitizer state, heap counters, and the recent
    report tail. *)
let san_render t =
  let b = Buffer.create 256 in
  let sh = t.shadow in
  Printf.bprintf b "sanitizer: %s\n" (if t.sanitize then "on" else "off");
  Printf.bprintf b
    "heap: %d allocs, %d frees, %d live bytes, quarantine %d blocks (%d bytes)\n"
    (Sanitizer.Shadow.allocations sh)
    (Sanitizer.Shadow.frees sh)
    (Sanitizer.Shadow.live_bytes sh)
    (Sanitizer.Shadow.quarantine_depth sh)
    (Sanitizer.Shadow.quarantine_bytes sh);
  Printf.bprintf b "reports: %d\n" t.san_count;
  List.iter
    (fun r -> Printf.bprintf b "%s\n" (format_san_report r))
    (san_reports t);
  Buffer.contents b
