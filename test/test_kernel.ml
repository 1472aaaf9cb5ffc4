(* Kernel sim: memory, layout, translation, allocation, symbols, module
   loading, ioctl devices, panic, klog. *)

open Carat_kop

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 0.0)

let fresh ?(require_signature = false) ?(require_certificate = false) () =
  Kernel.create ~require_signature ~require_certificate Machine.Presets.r350

(* ---------- physical memory ---------- *)

let test_memory_rw () =
  let m = Kernel.Memory.create ~size:4096 in
  Kernel.Memory.write m 0 ~size:8 0x1122334455667788;
  checki "read back" 0x1122334455667788 (Kernel.Memory.read m 0 ~size:8);
  checki "little endian low byte" 0x88 (Kernel.Memory.read_u8 m 0);
  checki "partial read" 0x7788 (Kernel.Memory.read m 0 ~size:2)

(* The byte-at-a-time accessors the word-level [Memory.read]/[write]
   replace, kept here as the reference they must agree with. *)
let ref_write b addr ~size v =
  for i = 0 to size - 1 do
    Bytes.set b (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let ref_read b addr ~size =
  let acc = ref 0 in
  for i = 0 to size - 1 do
    acc := !acc lor (Char.code (Bytes.get b (addr + i)) lsl (8 * i))
  done;
  !acc land max_int

let page = Kernel.Memory.page_size

(* three pages, so accesses can straddle either page boundary *)
let mem_bytes = 3 * page

(* reads of every size at every offset within 16 bytes of each point *)
let offsets_near points ~size =
  List.sort_uniq Int.compare
    (List.concat_map
       (fun p ->
         List.filter
           (fun o -> o >= 0 && o <= mem_bytes - size)
           (List.init 33 (fun d -> p - 16 + d)))
       points)

(* one write of [size] bytes at [off] over random initial contents,
   mostly astride a page boundary; then every byte, and every read of
   every size at every offset near the write and near both boundaries,
   must match the reference, so reads at a size other than the write's
   agree too *)
let prop_word_accessors =
  let gen =
    QCheck.Gen.(
      let* size = int_range 1 8 in
      let* off =
        oneof
          [
            int_range (page - 8) (page + 8);
            int_range ((2 * page) - 8) ((2 * page) + 8);
            int_range 0 (mem_bytes - size);
          ]
      in
      let* v =
        oneof
          [ oneofl [ min_int; max_int; -1; 0 ]; int; map (fun x -> -x) nat ]
      in
      let* init = string_size ~gen:char (return mem_bytes) in
      return (size, off, v, init))
  in
  QCheck.Test.make ~name:"word accessors = byte loop" ~count:500
    (QCheck.make
       ~print:(fun (size, off, v, _) ->
         Printf.sprintf "size %d at %d value %d" size off v)
       gen)
    (fun (size, off, v, init) ->
      let m = Kernel.Memory.create ~size:mem_bytes in
      Kernel.Memory.blit_string m ~dst:0 init;
      let r = Bytes.of_string init in
      Kernel.Memory.write m off ~size v;
      ref_write r off ~size v;
      String.equal
        (Kernel.Memory.read_string m ~src:0 ~len:mem_bytes)
        (Bytes.to_string r)
      && List.for_all
           (fun rsize ->
             List.for_all
               (fun roff ->
                 Kernel.Memory.read m roff ~size:rsize
                 = ref_read r roff ~size:rsize)
               (offsets_near [ off; page; 2 * page ] ~size:rsize))
           [ 1; 2; 3; 4; 5; 6; 7; 8 ])

(* every access size: the last in-bounds offset works; one byte further,
   at the end, below zero and where [addr + size] wraps past [max_int],
   the access is refused with its own address and size *)
let test_memory_bounds () =
  let m = Kernel.Memory.create ~size:mem_bytes in
  let refused what f addr size =
    match f () with
    | exception Kernel.Memory.Bad_phys_access e ->
      checki (what ^ " addr") addr e.addr;
      checki (what ^ " size") size e.size
    | _ -> Alcotest.failf "%s of %d bytes at %d accepted" what size addr
  in
  for size = 1 to 8 do
    let last = mem_bytes - size in
    ignore (Kernel.Memory.read m last ~size);
    Kernel.Memory.write m last ~size (-1);
    List.iter
      (fun addr ->
        refused "read" (fun () -> Kernel.Memory.read m addr ~size) addr size;
        refused "write"
          (fun () -> Kernel.Memory.write m addr ~size 0)
          addr size)
      [ last + 1; mem_bytes; -1; max_int - 3; max_int; min_int ]
  done

(* after warm-up, a direct-map access through the kernel must not touch
   the minor heap: no translation result, no boxed word *)
let test_direct_map_allocation_free () =
  let k = fresh () in
  let va = Kernel.kmalloc k ~size:64 in
  for i = 0 to 99 do
    Kernel.write k ~addr:(va + (i land 7)) ~size:8 i;
    ignore (Kernel.read k ~addr:(va + (i land 7)) ~size:8)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    ignore (Kernel.read k ~addr:(va + (i land 31)) ~size:(1 lsl (i land 3)))
  done;
  checkf "Kernel.read minor words" 0.0 (Gc.minor_words () -. w0);
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    Kernel.write k ~addr:(va + (i land 31)) ~size:(1 lsl (i land 3)) (i - 50_000)
  done;
  checkf "Kernel.write minor words" 0.0 (Gc.minor_words () -. w0);
  (* never-written memory reads as zeroes from the shared zero page *)
  let fresh_va = Kernel.kmalloc k ~size:65536 in
  let nonzero = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    nonzero :=
      !nonzero
      lor Kernel.read k ~addr:(fresh_va + ((i * 8) land 0xfff8))
            ~size:(1 lsl (i land 3))
  done;
  checkf "never-written read minor words" 0.0 (Gc.minor_words () -. w0);
  checki "never-written memory reads 0" 0 !nonzero;
  (* the piecewise copies behind memcpy/memset/write_string, across a
     page boundary, allocate nothing either *)
  let m = Kernel.memory k in
  let src = Kernel.Layout.phys_of_direct_map fresh_va + page - 700 in
  let frame = String.make 1500 'f' in
  let copies () =
    Kernel.Memory.blit_string m ~dst:src frame;
    Kernel.Memory.blit m ~src ~dst:(src + 3000) ~len:1500;
    Kernel.Memory.blit m ~src:(src + 3000) ~dst:(src + 10) ~len:1500;
    Kernel.Memory.fill m ~dst:src ~len:1500 'z'
  in
  copies ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    copies ()
  done;
  checkf "blit/fill minor words" 0.0 (Gc.minor_words () -. w0)

(* 64 MiB of DRAM is a page table until it is written: beyond its
   machine model (cache tag arrays, ~4.7 MB for the R350), creating a
   kernel allocates under 1 MiB *)
let test_create_allocates_no_dram () =
  let allocated f =
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. b0
  in
  ignore (fresh ());
  let model = allocated (fun () -> Machine.Model.create Machine.Presets.r350) in
  let kernel = allocated fresh -. model in
  if kernel >= 1024. *. 1024. then
    Alcotest.failf "Kernel.create allocated %.0f bytes beyond its model" kernel

let test_memory_blit () =
  let m = Kernel.Memory.create ~size:128 in
  Kernel.Memory.blit_string m ~dst:10 "hello";
  Alcotest.(check string) "read_string" "hello"
    (Kernel.Memory.read_string m ~src:10 ~len:5);
  Kernel.Memory.blit m ~src:10 ~dst:20 ~len:5;
  Alcotest.(check string) "copied" "hello"
    (Kernel.Memory.read_string m ~src:20 ~len:5);
  Kernel.Memory.fill m ~dst:10 ~len:5 'x';
  Alcotest.(check string) "filled" "xxxxx"
    (Kernel.Memory.read_string m ~src:10 ~len:5)

(* ---------- layout ---------- *)

let test_layout_predicates () =
  checkb "user" true (Kernel.Layout.is_user_addr 0x5000);
  checkb "not user" false (Kernel.Layout.is_user_addr Kernel.Layout.kernel_base);
  checkb "kernel" true (Kernel.Layout.is_kernel_addr Kernel.Layout.direct_map_base);
  checkb "module" true (Kernel.Layout.is_module_addr Kernel.Layout.module_base);
  checkb "mmio" true (Kernel.Layout.is_mmio_addr Kernel.Layout.mmio_base);
  checki "direct map round trip" 0x1234
    (Kernel.Layout.phys_of_direct_map (Kernel.Layout.direct_map_of_phys 0x1234))

(* ---------- virtual access ---------- *)

let test_direct_map_access () =
  let k = fresh () in
  let va = Kernel.kmalloc k ~size:64 in
  Kernel.write k ~addr:va ~size:8 0xABCD;
  checki "read back" 0xABCD (Kernel.read k ~addr:va ~size:8);
  (* the same bytes are visible through DMA (no cost, same phys) *)
  checki "dma view" 0xABCD (Kernel.dma_read k ~addr:va ~size:8)

let test_kernel_image_access () =
  let k = fresh () in
  let va = Kernel.Layout.kernel_data_base + 0x100 in
  Kernel.write k ~addr:va ~size:4 0x42;
  checki "image data" 0x42 (Kernel.read k ~addr:va ~size:4)

(* unmapped addresses fault on every access path, including an access
   whose end wraps past [max_int] and one just past the end of DRAM *)
let test_fault_on_unmapped () =
  let k = fresh () in
  let dram_end = Kernel.Layout.direct_map_base + (64 * 1024 * 1024) in
  let faults what f addr =
    match f addr with
    | exception Kernel.Fault e -> checki (what ^ " fault addr") addr e.addr
    | _ -> Alcotest.failf "%s of 8 bytes at 0x%x accepted" what addr
  in
  List.iter
    (fun addr ->
      faults "read" (fun addr -> Kernel.read k ~addr ~size:8) addr;
      faults "write" (fun addr -> Kernel.write k ~addr ~size:8 0) addr;
      faults "dma_read" (fun addr -> Kernel.dma_read k ~addr ~size:8) addr;
      faults "dma_write" (fun addr -> Kernel.dma_write k ~addr ~size:8 0) addr)
    [ 0x0DEA_D000_0000_0000; max_int - 3; max_int; dram_end; dram_end - 4 ];
  Kernel.write k ~addr:(dram_end - 8) ~size:8 7;
  checki "last word of DRAM" 7 (Kernel.read k ~addr:(dram_end - 8) ~size:8)

let test_user_mapping () =
  let k = fresh () in
  let ua = Kernel.map_user k ~size:4096 in
  checkb "in user half" true (Kernel.Layout.is_user_addr ua);
  Kernel.write k ~addr:ua ~size:8 77;
  checki "user rw" 77 (Kernel.read k ~addr:ua ~size:8)

let test_module_alloc_distinct () =
  let k = fresh () in
  let a = Kernel.module_alloc k ~size:128 in
  let b = Kernel.module_alloc k ~size:128 in
  checkb "distinct" true (a <> b);
  checkb "module area" true (Kernel.Layout.is_module_addr a);
  Kernel.write k ~addr:a ~size:8 1;
  Kernel.write k ~addr:b ~size:8 2;
  checki "no aliasing" 1 (Kernel.read k ~addr:a ~size:8)

let test_kmalloc_alignment () =
  let k = fresh () in
  let a = Kernel.kmalloc k ~size:10 in
  let b = Kernel.kmalloc k ~size:10 in
  checki "64B aligned" 0 (a land 63);
  checki "64B aligned 2" 0 (b land 63);
  checkb "no overlap" true (b >= a + 10)

let test_out_of_memory_panics () =
  let k = Kernel.create ~require_signature:false ~phys_size:(8 * 1024 * 1024)
      Machine.Presets.r350 in
  match Kernel.kmalloc k ~size:(32 * 1024 * 1024) with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "oom not detected"

(* ---------- mmio ---------- *)

let test_ioremap_dispatch () =
  let k = fresh () in
  let last_write = ref (0, 0, 0) in
  let r =
    Kernel.ioremap k ~name:"dev" ~size:4096
      ~read:(fun off size -> off * 100 + size)
      ~write:(fun off size v -> last_write := (off, size, v))
  in
  let base = r.Kernel.mmio_virt in
  checkb "in mmio window" true (Kernel.Layout.is_mmio_addr base);
  checki "read handler" (8 * 100 + 4) (Kernel.read k ~addr:(base + 8) ~size:4);
  Kernel.write k ~addr:(base + 16) ~size:4 0xBEEF;
  Alcotest.(check (triple int int int)) "write handler" (16, 4, 0xBEEF) !last_write

let test_mmio_costs_more_than_ram () =
  let k = fresh () in
  let r = Kernel.ioremap k ~name:"d" ~size:64 ~read:(fun _ _ -> 0)
      ~write:(fun _ _ _ -> ()) in
  let heap = Kernel.kmalloc k ~size:64 in
  ignore (Kernel.read k ~addr:heap ~size:8) (* warm *);
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.read k ~addr:heap ~size:8);
  let ram = Machine.Model.cycles m - c0 in
  let c1 = Machine.Model.cycles m in
  ignore (Kernel.read k ~addr:r.Kernel.mmio_virt ~size:4);
  let mmio = Machine.Model.cycles m - c1 in
  checkb "mmio slower" true (mmio > ram + 50)

(* ---------- symbols ---------- *)

let test_native_symbols () =
  let k = fresh () in
  Kernel.register_native k "triple" (fun _ args -> args.(0) * 3);
  checki "native call" 21 (Kernel.call_symbol k "triple" [| 7 |])

let test_symbol_address_stability () =
  let k = fresh () in
  Kernel.register_native k "f" (fun _ _ -> 0);
  let a1 = Option.get (Kernel.symbol_address k "f") in
  let a2 = Option.get (Kernel.symbol_address k "f") in
  checki "stable" a1 a2;
  Alcotest.(check (option string)) "reverse map" (Some "f")
    (Kernel.symbol_of_address k a1);
  checkb "missing symbol" true (Kernel.symbol_address k "nope" = None)

let test_call_missing_symbol_panics () =
  let k = fresh () in
  match Kernel.call_symbol k "ghost" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "missing symbol call"

(* ---------- module loading ---------- *)

let tiny_module ?(name = "tiny") () =
  let b = Kir.Builder.create name in
  ignore (Kir.Builder.declare_global b "state" ~size:16);
  ignore (Kir.Builder.start_func b "ping" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.ret b (Some (Kir.Types.Imm 1));
  Kir.Builder.modul b

let test_insmod_basic () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  (match Kernel.insmod k (tiny_module ()) with
  | Ok lm ->
    Alcotest.(check string) "name" "tiny" lm.Kernel.lm_name;
    checki "ping" 1 (Kernel.call_symbol k "ping" [||]);
    checkb "logged" true (Kernel.Klog.contains (Kernel.log k) "module tiny loaded")
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_insmod_requires_signature () =
  let k = fresh ~require_signature:true () in
  match Kernel.insmod k (tiny_module ()) with
  | Error (Kernel.Signature_rejected Passes.Signing.Unsigned) -> ()
  | Ok _ -> Alcotest.fail "unsigned module accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_signed_ok () =
  let k = fresh ~require_signature:true () in
  ignore (Vm.Interp.install k);
  Kernel.register_native k "carat_guard" (fun _ _ -> 0);
  let m = tiny_module () in
  ignore (Passes.Pipeline.compile m);
  match Kernel.insmod k m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "signed rejected: %s" (Kernel.load_error_to_string e)

let test_insmod_requires_certificate () =
  let k = fresh ~require_certificate:true () in
  ignore (Vm.Interp.install k);
  Kernel.register_native k "carat_guard" (fun _ _ -> 0);
  (* a compiled module carries a valid certificate: accepted *)
  let m = tiny_module () in
  ignore (Passes.Pipeline.compile m);
  (match Kernel.insert_module k m with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "certified rejected: %s" (Kernel.load_error_to_string e));
  (* signed but never certified (baseline pipeline): missing *)
  let m2 = tiny_module ~name:"uncert" () in
  ignore
    (Passes.Pass.run_pipeline_checked (Passes.Pipeline.baseline_sign ()) m2);
  (match Kernel.insert_module k m2 with
  | Error (Kernel.Certificate_rejected Analysis.Certify.Cert_missing) -> ()
  | Ok _ -> Alcotest.fail "uncertified module accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e));
  (* tampered after certification, then re-signed: the signature is
     fine but the certificate digest no longer matches the body *)
  let m3 = tiny_module ~name:"stale" () in
  ignore (Passes.Pipeline.compile m3);
  (match m3.Kir.Types.funcs with
  | f :: _ ->
    f.Kir.Types.blocks <-
      f.Kir.Types.blocks
      @ [ { Kir.Types.b_label = "patch"; body = []; term = Kir.Types.Ret None } ]
  | [] -> ());
  ignore
    (Passes.Signing.sign ~key:Passes.Pipeline.default_key ~signer:"evil" m3);
  (match Kernel.insert_module k m3 with
  | Error (Kernel.Certificate_rejected (Analysis.Certify.Cert_stale _)) -> ()
  | Ok _ -> Alcotest.fail "stale certificate accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e));
  (* same tamper, but with enforcement off: loads fine *)
  let k2 = fresh () in
  ignore (Vm.Interp.install k2);
  Kernel.register_native k2 "carat_guard" (fun _ _ -> 0);
  let m4 = tiny_module ~name:"lax" () in
  ignore (Passes.Pipeline.compile m4);
  m4.Kir.Types.meta <-
    List.filter
      (fun (key, _) -> key <> Passes.Attest.meta_cert)
      m4.Kir.Types.meta;
  match Kernel.insert_module k2 m4 with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "permissive kernel rejected: %s"
      (Kernel.load_error_to_string e)

let test_insmod_unresolved_import () =
  let k = fresh () in
  let b = Kir.Builder.create "needy" in
  Kir.Builder.declare_extern b "does_not_exist" ~arity:0;
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  Kir.Builder.call_unit b "does_not_exist" [];
  Kir.Builder.ret b None;
  match Kernel.insmod k (Kir.Builder.modul b) with
  | Error (Kernel.Unresolved_import "does_not_exist") -> ()
  | Ok _ -> Alcotest.fail "unresolved import accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_symbol_collision () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  (match Kernel.insmod k (tiny_module ()) with Ok _ -> () | Error _ -> assert false);
  match Kernel.insmod k (tiny_module ~name:"tiny2" ()) with
  | Error (Kernel.Symbol_collision _) -> ()
  | Ok _ -> Alcotest.fail "collision accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_invalid_ir () =
  let k = fresh () in
  let m = tiny_module () in
  (* corrupt: jump to a missing label *)
  (match m.Kir.Types.funcs with
  | f :: _ -> f.Kir.Types.blocks <-
      [ { Kir.Types.b_label = "entry"; body = []; term = Kir.Types.Br "gone" } ]
  | [] -> ());
  match Kernel.insmod k m with
  | Error (Kernel.Verification_failed _) -> ()
  | Ok _ -> Alcotest.fail "invalid IR accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Kernel.load_error_to_string e)

let test_insmod_runs_init () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "initful" in
  ignore (Kir.Builder.declare_global b "flag" ~size:8);
  ignore (Kir.Builder.start_func b "init_module" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.store b Kir.Types.I64 (Kir.Types.Imm 123) (Kir.Types.Sym "flag");
  Kir.Builder.ret b (Some (Kir.Types.Imm 0));
  (match Kernel.insmod k (Kir.Builder.modul b) with
  | Ok lm ->
    let addr = List.assoc "flag" lm.Kernel.lm_globals in
    checki "init ran" 123 (Kernel.read k ~addr ~size:8)
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_global_init_and_writability () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "gmod" in
  ignore (Kir.Builder.declare_global b "data" ~size:8 ~init:"AB");
  ignore (Kir.Builder.start_func b "f" ~params:[] ~ret:None);
  Kir.Builder.ret b None;
  (match Kernel.insmod k (Kir.Builder.modul b) with
  | Ok lm ->
    let addr = List.assoc "data" lm.Kernel.lm_globals in
    checki "init byte 0" (Char.code 'A') (Kernel.read k ~addr ~size:1);
    checki "init byte 1" (Char.code 'B') (Kernel.read k ~addr:(addr + 1) ~size:1);
    checki "zero filled" 0 (Kernel.read k ~addr:(addr + 2) ~size:1)
  | Error e -> Alcotest.failf "insmod: %s" (Kernel.load_error_to_string e))

let test_rmmod () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let lm = Result.get_ok (Kernel.insmod k (tiny_module ())) in
  checkb "unloads" true (Kernel.rmmod k lm = Ok ());
  (match Kernel.call_symbol k "ping" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "symbol survived rmmod");
  checkb "double unload" true (Kernel.rmmod k lm = Error Kernel.Already_dead)

let test_rmmod_refused_with_locks () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  let b = Kir.Builder.create "locky" in
  Kir.Builder.declare_extern b "spin_lock" ~arity:1;
  ignore (Kir.Builder.start_func b "grab" ~params:[] ~ret:(Some Kir.Types.I64));
  Kir.Builder.call_unit b "spin_lock" [ Kir.Types.Imm 0 ];
  Kir.Builder.ret b (Some (Kir.Types.Imm 0));
  let lm = Result.get_ok (Kernel.insmod k (Kir.Builder.modul b)) in
  ignore (Kernel.call_symbol k "grab" [||]);
  (match Kernel.rmmod k lm with
  | Error (Kernel.Locks_held 1) -> ()
  | _ -> Alcotest.fail "unload with held lock allowed");
  checkb "warned" true
    (Kernel.Klog.contains (Kernel.log k) "forced unload would deadlock")

(* ---------- natives ---------- *)

let test_native_memcpy_memset () =
  let k = fresh () in
  let a = Kernel.kmalloc k ~size:64 and b = Kernel.kmalloc k ~size:64 in
  Kernel.write_string k ~addr:a "carat-kop";
  ignore (Kernel.call_symbol k "memcpy" [| b; a; 9 |]);
  Alcotest.(check string) "memcpy" "carat-kop" (Kernel.read_string k ~addr:b ~len:9);
  ignore (Kernel.call_symbol k "memset" [| b; Char.code '!'; 4 |]);
  Alcotest.(check string) "memset" "!!!!t-kop" (Kernel.read_string k ~addr:b ~len:9)

let test_native_get_cycles_monotone () =
  let k = fresh () in
  let c1 = Kernel.call_symbol k "get_cycles" [||] in
  Machine.Model.add_cycles (Kernel.machine k) 100;
  let c2 = Kernel.call_symbol k "get_cycles" [||] in
  checkb "monotone" true (c2 > c1)

let test_native_ndelay () =
  let k = fresh () in
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.call_symbol k "ndelay" [| 1000 |]);
  let dt = Machine.Model.cycles m - c0 in
  (* 1000 ns at 2.8 GHz = 2800 cycles *)
  checkb "delay about right" true (dt > 2500 && dt < 3500)

(* ---------- devices & ioctl ---------- *)

let test_ioctl_dispatch () =
  let k = fresh () in
  Kernel.register_device k "widget" (fun _ ~cmd ~arg -> cmd * 10 + arg);
  checki "dispatched" 42 (Kernel.ioctl k ~dev:"widget" ~cmd:4 ~arg:2);
  checki "missing device" (-1) (Kernel.ioctl k ~dev:"nope" ~cmd:0 ~arg:0)

let test_ioctl_charges_syscall () =
  let k = fresh () in
  Kernel.register_device k "w" (fun _ ~cmd:_ ~arg:_ -> 0);
  let m = Kernel.machine k in
  let c0 = Machine.Model.cycles m in
  ignore (Kernel.ioctl k ~dev:"w" ~cmd:1 ~arg:0);
  checkb "syscall cost" true
    (Machine.Model.cycles m - c0
    >= Machine.Presets.r350.Machine.Model.syscall_overhead)

(* ---------- panic & log ---------- *)

let test_panic_carries_log_tail () =
  let k = fresh () in
  Kernel.Klog.printk (Kernel.log k) "something happened";
  (match Kernel.panic k "test reason" with
  | exception Kernel.Panic info ->
    checkb "reason" true (info.Kernel.reason = "test reason");
    checkb "tail present" true (List.length info.Kernel.log_tail > 0)
  | _ -> Alcotest.fail "no exception");
  (* kernel is dead now *)
  (match Kernel.call_symbol k "get_cycles" [||] with
  | exception Kernel.Panic _ -> ()
  | _ -> Alcotest.fail "dead kernel accepted a call");
  match Kernel.insmod k (tiny_module ()) with
  | Error Kernel.Kernel_is_panicked -> ()
  | _ -> Alcotest.fail "dead kernel accepted insmod"

let test_panic_idempotent () =
  let k = fresh () in
  (match Kernel.panic k "first fault" with
  | exception Kernel.Panic info ->
    checkb "first reason" true (info.Kernel.reason = "first fault")
  | _ -> Alcotest.fail "no exception");
  (* a second panic — e.g. raised from a crash handler — must preserve
     the original diagnosis, not overwrite it *)
  (match Kernel.panic k "secondary crash" with
  | exception Kernel.Panic info ->
    checkb "original preserved" true (info.Kernel.reason = "first fault")
  | _ -> Alcotest.fail "no exception");
  match Kernel.panic_state k with
  | Some info ->
    checkb "state keeps original" true (info.Kernel.reason = "first fault")
  | None -> Alcotest.fail "no panic state"

(* ---------- quarantine ---------- *)

let test_quarantine_basics () =
  let k = fresh () in
  ignore (Vm.Interp.install k);
  match Kernel.insmod k (tiny_module ()) with
  | Error _ -> Alcotest.fail "insmod"
  | Ok lm ->
    checki "live call" 1 (Kernel.call_symbol k "ping" [||]);
    Kernel.quarantine_module k lm ~reason:"test quarantine";
    checki "one record" 1 (List.length (Kernel.quarantine_records k));
    (* quarantining twice is a no-op *)
    Kernel.quarantine_module k lm ~reason:"again";
    checki "still one record" 1 (List.length (Kernel.quarantine_records k));
    (* symbols are unlinked: calls return -EIO instead of running *)
    checki "call returns eio" Kernel.eio (Kernel.call_symbol k "ping" [||]);
    checkb "tombstone present" true (Kernel.quarantined_symbol k "ping" <> None);
    checkb "unlinked" true (Kernel.lookup_symbol k "ping" = None);
    checkb "kernel alive" true (Kernel.panic_state k = None);
    (* rmmod reclaims the name; a repaired module can come back *)
    (match Kernel.rmmod k lm with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "rmmod of quarantined module");
    checkb "tombstone purged" true (Kernel.quarantined_symbol k "ping" = None);
    (match Kernel.insmod k (tiny_module ()) with
    | Ok _ -> checki "replacement runs" 1 (Kernel.call_symbol k "ping" [||])
    | Error _ -> Alcotest.fail "reinsert after rmmod")

(* ---------- snapshot / diff ---------- *)

let test_memory_diff () =
  let m = Kernel.Memory.create ~size:mem_bytes in
  let expect what want snap =
    let got = Kernel.Memory.diff_ranges m snap in
    let show d =
      String.concat ";"
        (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) d)
    in
    if got <> want then
      Alcotest.failf "%s: diff %s, expected %s" what (show got) (show want)
  in
  let snap = Kernel.Memory.snapshot m in
  expect "untouched" [] snap;
  Kernel.Memory.write m 10 ~size:2 0xFFFF;
  Kernel.Memory.write_u8 m 100 1;
  expect "two writes" [ (10, 2); (100, 1) ] snap;
  (* a write across a page boundary is one range *)
  let across = Kernel.Memory.snapshot m in
  Kernel.Memory.write m (page - 4) ~size:8 0x0102030405060708;
  expect "across a page" [ (page - 4, 8) ] across;
  (* a newer snapshot and writes after it leave the older ones intact *)
  let newer = Kernel.Memory.snapshot m in
  Kernel.Memory.write_u8 m 200 1;
  expect "newer" [ (200, 1) ] newer;
  expect "middle" [ (200, 1); (page - 4, 8) ] across;
  expect "oldest" [ (10, 2); (100, 1); (200, 1); (page - 4, 8) ] snap

(* A random stream of writes, fills, string and memory blits (overlapping
   both ways, across pages) and snapshots against a flat [Bytes]
   reference: after every step memory reads back as the reference, and
   every snapshot diffs as the reference does against its copy. The size
   leaves a partial last page. *)
type mem_op =
  | Write of int * int * int  (** addr, size, value *)
  | Fill of int * int * char  (** dst, len *)
  | Blit_string of int * string  (** dst *)
  | Blit of int * int * int  (** src, dst, len *)
  | Snapshot of int option  (** len *)

let cow_bytes = (3 * page) + 100

let show_op = function
  | Write (a, n, v) -> Printf.sprintf "write %d/%d %d" a n v
  | Fill (d, n, c) -> Printf.sprintf "fill %d/%d %C" d n c
  | Blit_string (d, s) -> Printf.sprintf "blit_string %d/%d" d (String.length s)
  | Blit (s, d, n) -> Printf.sprintf "blit %d->%d/%d" s d n
  | Snapshot l ->
    "snapshot" ^ Option.fold ~none:"" ~some:(Printf.sprintf " %d") l

let gen_mem_op =
  QCheck.Gen.(
    (* mostly within a dozen bytes of a page boundary *)
    let near_page =
      oneof
        [
          int_range 0 (cow_bytes - 1);
          map2 (fun p d -> (p * page) + d) (int_range 1 3) (int_range (-12) 12);
        ]
    in
    let len_from addr =
      map
        (Int.min (cow_bytes - addr))
        (oneof [ int_range 0 16; int_range 0 5000 ])
    in
    oneof
      [
        (let* size = int_range 1 8 in
         let* a = near_page in
         let* v = int in
         return (Write (Int.min a (cow_bytes - size), size, v)));
        (let* d = near_page in
         let* n = len_from d in
         let* c = char in
         return (Fill (d, n, c)));
        (let* d = near_page in
         let* n = len_from d in
         let* s = string_size ~gen:char (return n) in
         return (Blit_string (d, s)));
        (let* s = near_page in
         let* n = len_from s in
         let* d =
           oneof [ near_page; map (fun k -> s + k) (int_range (-n) n) ]
         in
         let d = Int.max 0 (Int.min d (cow_bytes - n)) in
         return (Blit (s, d, n)));
        map (fun l -> Snapshot l)
          (opt (int_range 0 (cow_bytes + 100)));
      ])

(* the byte diff [Memory.diff_ranges] must report *)
let ref_diff cur old =
  let ranges = ref [] and start = ref (-1) in
  for i = 0 to Bytes.length old do
    if i < Bytes.length old && Bytes.get cur i <> Bytes.get old i then begin
      if !start < 0 then start := i
    end
    else if !start >= 0 then begin
      ranges := (!start, i - !start) :: !ranges;
      start := -1
    end
  done;
  List.rev !ranges

let prop_copy_on_write =
  QCheck.Test.make ~name:"paged memory = flat reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_mem_op))
    (fun ops ->
      let m = Kernel.Memory.create ~size:cow_bytes in
      let r = Bytes.make cow_bytes '\000' in
      let snaps = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Write (a, size, v) ->
            Kernel.Memory.write m a ~size v;
            ref_write r a ~size v
          | Fill (d, n, c) ->
            Kernel.Memory.fill m ~dst:d ~len:n c;
            Bytes.fill r d n c
          | Blit_string (d, s) ->
            Kernel.Memory.blit_string m ~dst:d s;
            Bytes.blit_string s 0 r d (String.length s)
          | Blit (src, dst, len) ->
            Kernel.Memory.blit m ~src ~dst ~len;
            Bytes.blit r src r dst len
          | Snapshot len ->
            let n = Option.fold ~none:cow_bytes ~some:(Int.min cow_bytes) len in
            let snap = Kernel.Memory.snapshot ?len m in
            snaps := (snap, Bytes.sub r 0 n) :: !snaps);
          String.equal
            (Kernel.Memory.read_string m ~src:0 ~len:cow_bytes)
            (Bytes.to_string r)
          && List.for_all
               (fun (snap, copy) ->
                 Kernel.Memory.diff_ranges m snap = ref_diff r copy)
               !snaps)
        ops)

(* ---------- watchdog ---------- *)

let test_watchdog_fires_on_deadline () =
  let k = fresh () in
  let machine = Kernel.machine k in
  let wd = Kernel.Watchdog.create ~period:1_000 machine in
  let runs = ref 0 in
  Kernel.Watchdog.add_check wd ~name:"probe" (fun () ->
      incr runs;
      0);
  checki "period readable" 1_000 (Kernel.Watchdog.period wd);
  (* before the deadline: nothing fires, no cost *)
  checki "early run_pending is a no-op" 0
    (Kernel.Watchdog.advance wd ~cycles:10);
  checki "no fire yet" 0 (Kernel.Watchdog.fires wd);
  checki "check not run" 0 !runs;
  (* past the deadline: one fire, the check runs, overhead is charged *)
  let before = Machine.Model.cycles machine in
  ignore (Kernel.Watchdog.advance wd ~cycles:1_000);
  checki "one fire" 1 (Kernel.Watchdog.fires wd);
  checki "check ran once" 1 !runs;
  checkb "interrupt overhead charged" true
    (Machine.Model.cycles machine >= before + 1_000 + 110)

let test_watchdog_coalesces_missed_periods () =
  let k = fresh () in
  let wd = Kernel.Watchdog.create ~period:1_000 (Kernel.machine k) in
  let runs = ref 0 in
  Kernel.Watchdog.add_check wd ~name:"probe" (fun () ->
      incr runs;
      0);
  (* ten periods of idle time, one catch-up opportunity: a real softirq
     coalesces back-to-back missed expiries into one *)
  ignore (Kernel.Watchdog.advance wd ~cycles:10_000);
  checki "one coalesced fire" 1 (Kernel.Watchdog.fires wd);
  checki "check ran once" 1 !runs;
  (* the deadline re-armed from now, so the next period fires again *)
  ignore (Kernel.Watchdog.advance wd ~cycles:1_200);
  checki "re-armed" 2 (Kernel.Watchdog.fires wd)

let test_watchdog_problems_and_disable () =
  let k = fresh () in
  let wd = Kernel.Watchdog.create ~period:1_000 (Kernel.machine k) in
  Kernel.Watchdog.add_check wd ~name:"broken" (fun () -> 3);
  Kernel.Watchdog.add_check wd ~name:"fine" (fun () -> 0);
  (* run_now skips the deadline test and sums across checks *)
  checki "run_now totals problems" 3 (Kernel.Watchdog.run_now wd);
  checki "accumulated" 3 (Kernel.Watchdog.problems wd);
  checki "no periodic fire from run_now" 0 (Kernel.Watchdog.fires wd);
  (match Kernel.Watchdog.checks wd with
  | [ a; b ] ->
    Alcotest.(check string) "registration order" "broken" a.Kernel.Watchdog.ck_name;
    checki "per-check problems" 3 a.Kernel.Watchdog.ck_problems;
    checki "clean check clean" 0 b.Kernel.Watchdog.ck_problems
  | _ -> Alcotest.fail "two checks expected");
  Kernel.Watchdog.disable wd;
  checki "disabled: no fire" 0 (Kernel.Watchdog.advance wd ~cycles:5_000);
  checki "still zero fires" 0 (Kernel.Watchdog.fires wd);
  Kernel.Watchdog.enable wd;
  ignore (Kernel.Watchdog.advance wd ~cycles:1);
  checki "enabled again fires" 1 (Kernel.Watchdog.fires wd)

let test_klog_ring () =
  let log = Kernel.Klog.create ~capacity:4 () in
  for i = 1 to 10 do
    Kernel.Klog.printk log "entry %d" i
  done;
  checki "bounded" 4 (List.length (Kernel.Klog.entries log));
  checkb "has newest" true (Kernel.Klog.contains log "entry 10");
  checkb "dropped oldest" false (Kernel.Klog.contains log "entry 2");
  let tail = Kernel.Klog.tail log 2 in
  Alcotest.(check (list string)) "tail order" [ "entry 9"; "entry 10" ] tail;
  Kernel.Klog.clear log;
  checki "cleared" 0 (List.length (Kernel.Klog.entries log))

let () =
  Alcotest.run "kernel"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "blit" `Quick test_memory_blit;
          QCheck_alcotest.to_alcotest prop_word_accessors;
          QCheck_alcotest.to_alcotest prop_copy_on_write;
          Alcotest.test_case "create allocates no DRAM" `Quick
            test_create_allocates_no_dram;
        ] );
      ( "layout",
        [ Alcotest.test_case "predicates" `Quick test_layout_predicates ] );
      ( "address-space",
        [
          Alcotest.test_case "direct map" `Quick test_direct_map_access;
          Alcotest.test_case "direct map allocation-free" `Quick
            test_direct_map_allocation_free;
          Alcotest.test_case "kernel image" `Quick test_kernel_image_access;
          Alcotest.test_case "fault unmapped" `Quick test_fault_on_unmapped;
          Alcotest.test_case "user mapping" `Quick test_user_mapping;
          Alcotest.test_case "module allocs" `Quick test_module_alloc_distinct;
          Alcotest.test_case "kmalloc alignment" `Quick test_kmalloc_alignment;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory_panics;
        ] );
      ( "mmio",
        [
          Alcotest.test_case "ioremap dispatch" `Quick test_ioremap_dispatch;
          Alcotest.test_case "mmio cost" `Quick test_mmio_costs_more_than_ram;
        ] );
      ( "symbols",
        [
          Alcotest.test_case "native" `Quick test_native_symbols;
          Alcotest.test_case "addresses" `Quick test_symbol_address_stability;
          Alcotest.test_case "missing panics" `Quick test_call_missing_symbol_panics;
        ] );
      ( "modules",
        [
          Alcotest.test_case "insmod basic" `Quick test_insmod_basic;
          Alcotest.test_case "unsigned rejected" `Quick test_insmod_requires_signature;
          Alcotest.test_case "signed accepted" `Quick test_insmod_signed_ok;
          Alcotest.test_case "certificate gate" `Quick
            test_insmod_requires_certificate;
          Alcotest.test_case "unresolved import" `Quick test_insmod_unresolved_import;
          Alcotest.test_case "symbol collision" `Quick test_insmod_symbol_collision;
          Alcotest.test_case "invalid IR" `Quick test_insmod_invalid_ir;
          Alcotest.test_case "init_module runs" `Quick test_insmod_runs_init;
          Alcotest.test_case "global init" `Quick test_global_init_and_writability;
          Alcotest.test_case "rmmod" `Quick test_rmmod;
          Alcotest.test_case "rmmod lock refusal" `Quick test_rmmod_refused_with_locks;
        ] );
      ( "natives",
        [
          Alcotest.test_case "memcpy/memset" `Quick test_native_memcpy_memset;
          Alcotest.test_case "get_cycles" `Quick test_native_get_cycles_monotone;
          Alcotest.test_case "ndelay" `Quick test_native_ndelay;
        ] );
      ( "devices",
        [
          Alcotest.test_case "ioctl dispatch" `Quick test_ioctl_dispatch;
          Alcotest.test_case "ioctl syscall cost" `Quick test_ioctl_charges_syscall;
        ] );
      ( "panic",
        [
          Alcotest.test_case "panic flow" `Quick test_panic_carries_log_tail;
          Alcotest.test_case "panic idempotent" `Quick test_panic_idempotent;
          Alcotest.test_case "klog ring" `Quick test_klog_ring;
        ] );
      ( "quarantine",
        [ Alcotest.test_case "basics" `Quick test_quarantine_basics ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires on deadline" `Quick
            test_watchdog_fires_on_deadline;
          Alcotest.test_case "coalesces missed periods" `Quick
            test_watchdog_coalesces_missed_periods;
          Alcotest.test_case "problems + disable" `Quick
            test_watchdog_problems_and_disable;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "diff ranges" `Quick test_memory_diff ] );
    ]
