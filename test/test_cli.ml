(* CLI tools: kop_compile, policy_manager, kop_run — exercised as real
   subprocesses over temp files, covering the workflows the README
   documents. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* binaries are declared as test deps in dune; when run by `dune
   runtest` the cwd is the test build directory and ../bin works, while
   `dune exec` starts from the workspace root *)
let resolve name =
  let candidates =
    [
      Filename.concat "../bin" name;
      Filename.concat "_build/default/bin" name;
      Filename.concat "bin" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "cannot locate %s (cwd %s)" name (Sys.getcwd ())

let kop_compile = resolve "kop_compile.exe"
let policy_manager = resolve "policy_manager.exe"
let kop_run = resolve "kop_run.exe"
let kop_lint = resolve "kop_lint.exe"

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sh fmt =
  Printf.ksprintf
    (fun cmd ->
      let code = Sys.command (cmd ^ " >/dev/null 2>&1") in
      code)
    fmt

let sh_out fmt =
  Printf.ksprintf
    (fun cmd ->
      let ic = Unix.open_process_in (cmd ^ " 2>&1") in
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      let code =
        match Unix.close_process_in ic with
        | Unix.WEXITED n -> n
        | _ -> -1
      in
      (code, Buffer.contents buf))
    fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_compile_emit_driver () =
  let out = tmp "cli_driver.kir" in
  checki "emits" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile out);
  checkb "file exists" true (Sys.file_exists out);
  (* output parses back and is transformed + signed *)
  let m = Carat_kop.Kir.Parser.parse_file out in
  checkb "guarded" true
    (Carat_kop.Kir.Types.meta_find m "carat.kop.guarded" = Some "true");
  checkb "verifies" true
    (Carat_kop.Passes.Signing.verify
       ~key:Carat_kop.Passes.Pipeline.default_key m
    = Ok ())

let test_compile_rejects_asm () =
  let src = tmp "cli_asm.kir" in
  let oc = open_out src in
  output_string oc
    "module \"bad\"\nfunc @f() : void {\nentry:\n  asm \"cli\"\n  ret\n}\n";
  close_out oc;
  checkb "refused" true (sh "%s %s -o /dev/null" kop_compile src <> 0)

let test_compile_no_transform () =
  let out = tmp "cli_base.kir" in
  checki "baseline build" 0
    (sh "%s --emit-driver --scale 1 --no-transform -o %s" kop_compile out);
  let m = Carat_kop.Kir.Parser.parse_file out in
  checki "no guards" 0 (Carat_kop.Passes.Guard_injection.count_guards m)

let test_policy_manager_lifecycle () =
  let pol = tmp "cli_policy.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  checki "add" 0
    (sh "%s add %s --base 0x2000 --len 0x1000 --prot r- --tag win --prepend"
       policy_manager pol);
  let code, out = sh_out "%s list %s" policy_manager pol in
  checki "list ok" 0 code;
  checkb "shows window" true (contains out "win");
  checkb "window first" true (contains out " 0. [0x2000");
  (* check: allowed inside, denied outside *)
  checki "inside allowed" 0
    (sh "%s check %s --addr 0x2100 --size 8" policy_manager pol);
  checki "write to r- denied" 3
    (sh "%s check %s --addr 0x2100 --size 8 --write" policy_manager pol);
  checki "remove" 0 (sh "%s remove %s --base 0x2000" policy_manager pol);
  checki "remove again fails" 1 (sh "%s remove %s --base 0x2000" policy_manager pol)

let test_policy_manager_push () =
  let pol = tmp "cli_policy2.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s push %s" policy_manager pol in
  checki "push ok" 0 code;
  checkb "two regions pushed" true (contains out "pushed 2 region")

let test_policy_manager_set_mode () =
  let pol = tmp "cli_policy3.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s set-mode %s quarantine" policy_manager pol in
  checki "set-mode ok" 0 code;
  checkb "confirms live switch" true (contains out "live ioctl ok");
  let code, out = sh_out "%s list %s" policy_manager pol in
  checki "list ok" 0 code;
  checkb "mode persisted" true (contains out "mode:    quarantine");
  checki "bad mode rejected" 1 (sh "%s set-mode %s frobnicate" policy_manager pol)

let test_kop_run_happy_and_panic () =
  let drv = tmp "cli_run.kir" in
  let pol = tmp "cli_run.kop" in
  checki "emit" 0
    (sh "%s --emit-driver --scale 1 --rogue -o %s" kop_compile drv);
  checki "policy" 0 (sh "%s init -o %s" policy_manager pol);
  (* a benign call *)
  let code, out =
    sh_out "%s %s --policy %s --call e1000e_eeprom_read --args 1" kop_run drv
      pol
  in
  checki "runs" 0 code;
  checkb "prints result" true (contains out "e1000e_eeprom_read(1) =");
  (* the rogue backdoor against user memory: exit code 4 = panic *)
  let code, out =
    sh_out "%s %s --policy %s --call e1000e_debug_peek --args 0x2000" kop_run
      drv pol
  in
  checki "panics" 4 code;
  checkb "says so" true (contains out "KERNEL PANIC")

let test_kop_run_smp () =
  let drv = tmp "cli_smp.kir" in
  let pol = tmp "cli_smp.kop" in
  checki "emit" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile drv);
  checki "policy" 0 (sh "%s init -o %s" policy_manager pol);
  let run () =
    sh_out "%s %s --policy %s --call e1000e_eeprom_read --args 1 --cpus 4"
      kop_run drv pol
  in
  let code, out = run () in
  checki "runs on 4 cpus" 0 code;
  checkb "cpu0 result" true (contains out "cpu0: e1000e_eeprom_read(1) =");
  checkb "cpu3 result" true (contains out "cpu3: e1000e_eeprom_read(1) =");
  checkb "interleave shown" true (contains out "interleave: [");
  (* deterministic: a second identical invocation prints identical output *)
  let code2, out2 = run () in
  checki "rerun ok" 0 code2;
  checkb "deterministic output" true (out = out2);
  (* --cpus 1 keeps the classic single-CPU output shape *)
  let code, out =
    sh_out "%s %s --policy %s --call e1000e_eeprom_read --args 1 --cpus 1"
      kop_run drv pol
  in
  checki "single cpu ok" 0 code;
  checkb "classic format" true (contains out "e1000e_eeprom_read(1) =");
  checkb "no cpu prefix" true (not (contains out "cpu0:"));
  checki "cpus bounds" 2
    (sh "%s %s --policy %s --call e1000e_eeprom_read --args 1 --cpus 9" kop_run
       drv pol)

let test_policy_manager_storm () =
  let pol = tmp "cli_storm.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s storm %s --cpus 4 --updates 12" policy_manager pol in
  checki "storm ok" 0 code;
  checkb "publications reported" true (contains out "24 publications");
  checkb "no stale allow" true (contains out "stale allows after publish: 0");
  checkb "verdict" true (contains out "OK: updates atomic");
  (* a single CPU cannot race itself *)
  checki "rejects cpus 1" 2 (sh "%s storm %s --cpus 1" policy_manager pol)

let test_policy_manager_audit () =
  let pol = tmp "cli_audit.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s audit %s" policy_manager pol in
  checki "audit ok" 0 code;
  checkb "clean audit first" true (contains out "clean audit (ioctl 18): 0");
  checkb "every tier healed" true
    (contains out "corrupt inline cache"
    && contains out "corrupt shadow table"
    && contains out "corrupt policy instance");
  checkb "render shows the episode" true (contains out "detections 3");
  checkb "verdict" true (contains out "OK: all tiers detected");
  (* deterministic, like every simulated workload *)
  let code2, out2 = sh_out "%s audit %s" policy_manager pol in
  checki "rerun ok" 0 code2;
  checkb "deterministic output" true (out = out2)

let test_policy_manager_lint () =
  let pol = tmp "cli_lint.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  (* the canonical policy lints clean of errors *)
  let code, out = sh_out "%s lint %s" policy_manager pol in
  checki "clean policy passes" 0 code;
  checkb "reports zero errors" true (contains out "0 error(s)");
  (* prepend a wide rw region: the device window behind it is shadowed *)
  checki "add blanket" 0
    (sh "%s add %s --base 0x1100000000000000 --len 0x100000 --prot rw \
         --tag dev --prepend"
       policy_manager pol);
  checki "add shadowed" 0
    (sh "%s add %s --base 0x1100000000001000 --len 0x1000 --prot r- \
         --tag inner"
       policy_manager pol);
  let code, out = sh_out "%s lint %s" policy_manager pol in
  checki "shadowed rule is an error" 3 code;
  checkb "names the rule" true (contains out "E-shadowed")

let test_kop_lint_module () =
  let raw = tmp "cli_lint_raw.kir" in
  let ok = tmp "cli_lint_ok.kir" in
  checki "emit raw" 0
    (sh "%s --emit-driver --scale 1 --no-transform -o %s" kop_compile raw);
  checki "emit compiled" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile ok);
  (* untransformed driver: every access is an unguarded-error *)
  let code, out = sh_out "%s module %s" kop_lint raw in
  checki "raw module fails" 3 code;
  checkb "unguarded reported" true (contains out "L-unguarded");
  (* compiled driver lints clean *)
  let code, out = sh_out "%s module %s" kop_lint ok in
  checki "compiled module clean" 0 code;
  checkb "zero errors" true (contains out "0 error(s)")

let test_kop_lint_cert () =
  let drv = tmp "cli_lint_cert.kir" in
  checki "emit compiled" 0
    (sh "%s --emit-driver --scale 1 --optimize -o %s" kop_compile drv);
  let code, out = sh_out "%s cert %s" kop_lint drv in
  checki "certificate validates" 0 code;
  checkb "says ok" true (contains out "certificate ok");
  (* tamper with the body: the digest no longer matches *)
  let m = Carat_kop.Kir.Parser.parse_file drv in
  (match m.Carat_kop.Kir.Types.funcs with
  | f :: _ ->
    f.Carat_kop.Kir.Types.blocks <-
      f.Carat_kop.Kir.Types.blocks
      @ [ { Carat_kop.Kir.Types.b_label = "patch"; body = [];
            term = Carat_kop.Kir.Types.Ret None } ]
  | [] -> ());
  let oc = open_out drv in
  output_string oc (Carat_kop.Kir.Printer.to_string m);
  close_out oc;
  let code, out = sh_out "%s cert %s" kop_lint drv in
  checki "tampered rejected" 3 code;
  checkb "stale reported" true (contains out "stale")

let test_kop_lint_policy () =
  let pol = tmp "cli_lint_pol.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  checki "clean" 0 (sh "%s policy %s" kop_lint pol);
  (* --strict turns the canonical policy's straddle warning into a failure *)
  let code, out = sh_out "%s policy %s --strict" kop_lint pol in
  checki "strict fails on warning" 3 code;
  checkb "straddle reported" true (contains out "W-straddle")


let test_policy_manager_push_batch () =
  let pol = tmp "cli_policy_batch.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s push-batch %s" policy_manager pol in
  checki "batch into root" 0 code;
  checkb "atomic install reported" true
    (contains out "installed 2 region(s) atomically");
  let code, out = sh_out "%s push-batch %s --domain e1000e" policy_manager pol in
  checki "batch into a domain" 0 code;
  checkb "domain install reported" true (contains out "into domain 1 (e1000e)")

let test_policy_manager_domains () =
  let pol = tmp "cli_policy_doms.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  let code, out = sh_out "%s domains %s --count 3" policy_manager pol in
  checki "domains ok" 0 code;
  checkb "three live" true (contains out "3 domain(s) live");
  checkb "per-domain stats rows" true (contains out "dom3");
  checkb "procfs rendered" true (contains out "shards");
  checki "count out of range" 2 (sh "%s domains %s --count 0" policy_manager pol)

let test_policy_manager_remove_first_occurrence () =
  let pol = tmp "cli_policy_dup.kop" in
  if Sys.file_exists pol then Sys.remove pol;
  checki "init" 0 (sh "%s init -o %s" policy_manager pol);
  (* two rules at the same base: remove must peel ONE per invocation *)
  checki "dup add" 0
    (sh "%s add %s --base 0x7000 --len 0x100 --prot r- --tag one"
       policy_manager pol);
  checki "dup add 2" 0
    (sh "%s add %s --base 0x7000 --len 0x100 --prot rw --tag two"
       policy_manager pol);
  checki "first remove" 0 (sh "%s remove %s --base 0x7000" policy_manager pol);
  let code, out = sh_out "%s list %s" policy_manager pol in
  checki "list" 0 code;
  checkb "second rule survives" true (contains out "two");
  checkb "first rule gone" false (contains out "one");
  checki "second remove" 0 (sh "%s remove %s --base 0x7000" policy_manager pol);
  checki "third remove fails" 1 (sh "%s remove %s --base 0x7000" policy_manager pol)

let test_kop_lint_cert_domain () =
  let drv = tmp "cli_lint_cert_dom.kir" in
  checki "emit compiled" 0
    (sh "%s --emit-driver --scale 1 --optimize -o %s" kop_compile drv);
  (* the compiler issues an undomained certificate: a pinned verifier
     must refuse it *)
  let code, out = sh_out "%s cert %s --domain e1000e" kop_lint drv in
  checki "undomained cert fails pinned check" 3 code;
  checkb "names the mismatch" true (contains out "domain");
  (* re-issue the certificate bound to the domain, then the pinned
     verifier accepts it and a differently-pinned one refuses it *)
  let m = Carat_kop.Kir.Parser.parse_file drv in
  Carat_kop.Analysis.Certify.set_domain m "e1000e";
  (match Carat_kop.Analysis.Certify.certificate m with
  | Ok cert ->
    Carat_kop.Kir.Types.meta_set m Carat_kop.Passes.Attest.meta_cert cert
  | Error e -> Alcotest.failf "re-certify: %s" e);
  let oc = open_out drv in
  output_string oc (Carat_kop.Kir.Printer.to_string m);
  close_out oc;
  checki "bound cert passes unpinned" 0 (sh "%s cert %s" kop_lint drv);
  checki "bound cert passes pinned" 0
    (sh "%s cert %s --domain e1000e" kop_lint drv);
  checki "wrong pin refused" 3 (sh "%s cert %s --domain ixgbe" kop_lint drv)

let test_kop_run_rejects_unsigned () =
  let drv = tmp "cli_unsigned.kir" in
  (* emit WITHOUT transform or signature *)
  checki "emit raw" 0
    (sh "%s --emit-driver --scale 1 --no-transform -o %s" kop_compile drv);
  (* strip even the baseline signature by regenerating meta-free *)
  let m = Carat_kop.Kir.Parser.parse_file drv in
  m.Carat_kop.Kir.Types.meta <- [];
  let oc = open_out drv in
  output_string oc (Carat_kop.Kir.Printer.to_string m);
  close_out oc;
  let code, out = sh_out "%s %s --call e1000e_eeprom_read --args 1" kop_run drv in
  checki "rejected" 1 code;
  checkb "reason shown" true (contains out "insmod rejected");
  (* --no-enforce lets it through, like today's kernels *)
  let code, _ =
    sh_out "%s %s --no-enforce --call e1000e_eeprom_read --args 1" kop_run drv
  in
  checki "permissive mode" 0 code

let write_kir path m =
  let oc = open_out path in
  output_string oc (Carat_kop.Kir.Printer.to_string m);
  close_out oc

(* satellite: the exit-code contract is uniform across subcommands —
   0 clean (warnings allowed), 3 errors (or --strict + warnings),
   1 bad input *)
let test_kop_lint_san_matrix () =
  let open Carat_kop in
  let b = Kir.Builder.create "sanfix" in
  ignore (Kir.Builder.start_func b "df" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Kir.Types.Imm 64 ] with
  | Some p ->
    Kir.Builder.call_unit b "kfree" [ p ];
    Kir.Builder.call_unit b "kfree" [ p ]
  | None -> ());
  Kir.Builder.ret b None;
  let buggy = tmp "cli_san_buggy.kir" in
  write_kir buggy (Kir.Builder.modul b);
  let code, out = sh_out "%s san %s" kop_lint buggy in
  checki "seeded double free exits 3" 3 code;
  checkb "finding named" true (contains out "L-double-free");
  (* warnings only: clean exit, promoted to errors by --strict *)
  let b = Kir.Builder.create "warnfix" in
  ignore (Kir.Builder.start_func b "leak" ~params:[] ~ret:None);
  (match Kir.Builder.call b "kmalloc" [ Kir.Types.Imm 32 ] with
  | Some p ->
    ignore (Kir.Builder.icmp b Kir.Types.Eq Kir.Types.I64 p (Kir.Types.Imm 0))
  | None -> ());
  Kir.Builder.ret b None;
  let warn = tmp "cli_san_warn.kir" in
  write_kir warn (Kir.Builder.modul b);
  let code, out = sh_out "%s san %s" kop_lint warn in
  checki "warnings alone pass" 0 code;
  checkb "leak warned" true (contains out "L-leak-on-exit");
  checki "--strict promotes warnings" 3 (sh "%s san %s --strict" kop_lint warn);
  (* the generated driver must lint error-free at scale *)
  let drv = tmp "cli_san_drv.kir" in
  checki "emit driver" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile drv);
  checki "driver error-free" 0 (sh "%s san %s" kop_lint drv);
  (* unparseable input is 1, like every other subcommand *)
  let junk = tmp "cli_san_junk.kir" in
  let oc = open_out junk in
  output_string oc "this is not kir\n";
  close_out oc;
  checki "parse failure exits 1" 1 (sh "%s san %s" kop_lint junk)

let test_kop_lint_race () =
  let code, out = sh_out "%s race" kop_lint in
  checki "fixture suite passes" 0 code;
  checkb "clean suites listed" true (contains out "clean-rcu-storm");
  checkb "seeded fixture listed" true (contains out "seeded-stale-window");
  checkb "verdict line" true (contains out "5/5 passed");
  checki "--strict accepted" 0 (sh "%s race --strict" kop_lint)

let test_kop_run_sanitize () =
  let drv = tmp "cli_sanrun.kir" in
  checki "emit driver" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile drv);
  checki "sanitized run stays clean" 0
    (sh "%s %s --sanitize --call e1000e_eeprom_read --args 1" kop_run drv)

(* a policy file with more regions than the 64-entry table: every tool
   that loads it into an engine exits 2 with the typed reason *)
let test_over_capacity_policy () =
  let drv = tmp "cli_big.kir" in
  let pol = tmp "cli_big.kop" in
  checki "emit" 0 (sh "%s --emit-driver --scale 1 -o %s" kop_compile drv);
  Carat_kop.Policy.Policy_file.save pol
    {
      Carat_kop.Policy.Policy_file.kernel_only with
      regions = Carat_kop.Policy.Region.padding 70;
    };
  List.iter
    (fun (what, cmd) ->
      let code, out = cmd () in
      checki (what ^ " exit") 2 code;
      checkb (what ^ " says why") true
        (contains out "policy table full (64 regions)"))
    [
      ("kop_run", fun () ->
          sh_out "%s %s --policy %s --call e1000e_eeprom_read --args 1" kop_run
            drv pol);
      ("stats", fun () -> sh_out "%s stats %s" policy_manager pol);
      ("check", fun () -> sh_out "%s check %s --addr 0x2000" policy_manager pol);
      ("audit", fun () -> sh_out "%s audit %s" policy_manager pol);
    ]

let () =
  Alcotest.run "cli"
    [
      ( "kop_compile",
        [
          Alcotest.test_case "emit driver" `Quick test_compile_emit_driver;
          Alcotest.test_case "rejects asm" `Quick test_compile_rejects_asm;
          Alcotest.test_case "no-transform" `Quick test_compile_no_transform;
        ] );
      ( "policy_manager",
        [
          Alcotest.test_case "lifecycle" `Quick test_policy_manager_lifecycle;
          Alcotest.test_case "push via ioctl" `Quick test_policy_manager_push;
          Alcotest.test_case "set-mode" `Quick test_policy_manager_set_mode;
          Alcotest.test_case "smp update storm" `Quick test_policy_manager_storm;
          Alcotest.test_case "selfheal audit" `Quick test_policy_manager_audit;
          Alcotest.test_case "lint" `Quick test_policy_manager_lint;
          Alcotest.test_case "push-batch" `Quick test_policy_manager_push_batch;
          Alcotest.test_case "domains" `Quick test_policy_manager_domains;
          Alcotest.test_case "remove peels one" `Quick
            test_policy_manager_remove_first_occurrence;
          Alcotest.test_case "over-capacity file exits 2" `Quick
            test_over_capacity_policy;
        ] );
      ( "kop_run",
        [
          Alcotest.test_case "run and panic" `Quick test_kop_run_happy_and_panic;
          Alcotest.test_case "signature gate" `Quick test_kop_run_rejects_unsigned;
          Alcotest.test_case "smp --cpus" `Quick test_kop_run_smp;
          Alcotest.test_case "--sanitize" `Quick test_kop_run_sanitize;
        ] );
      ( "kop_lint",
        [
          Alcotest.test_case "module lints" `Quick test_kop_lint_module;
          Alcotest.test_case "cert validates" `Quick test_kop_lint_cert;
          Alcotest.test_case "policy lints" `Quick test_kop_lint_policy;
          Alcotest.test_case "cert --domain" `Quick test_kop_lint_cert_domain;
          Alcotest.test_case "san exit codes" `Quick test_kop_lint_san_matrix;
          Alcotest.test_case "race suite" `Quick test_kop_lint_race;
        ] );
    ]
