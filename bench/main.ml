(* Reproduction harness: one section per table/figure of the paper, each
   printing the regenerated rows next to the paper's published values, plus
   ablations the paper only gestures at, plus Bechamel micro-benchmarks of
   the encoding machinery itself.

   Run with:  dune exec bench/main.exe
   Fast mode: POWERCODE_FAST=1 dune exec bench/main.exe   (scaled workloads)

   Absolute transition counts depend on our Minic compiler's instruction
   selection, so they differ from the paper's SimpleScalar/gcc numbers; the
   shapes (who wins, how savings decay with block size, which benchmark
   lags) are the reproduction targets.  EXPERIMENTS.md records both sides. *)

let section title =
  Format.printf "@.=====================================================@.";
  Format.printf "== %s@." title;
  Format.printf "=====================================================@."

(* ---- Figure 2: optimal code table for k = 3 -------------------------------- *)

let fig2 () =
  section "Figure 2: power-efficient transformations for 3-bit blocks";
  Format.printf "   X -> X~   tau     Tx Tx~@.";
  Array.iter
    (fun e -> Format.printf "  %a@." (Powercode.Solver.pp_entry ~k:3) e)
    (Powercode.Solver.table ~k:3 ());
  Format.printf
    "Paper: identical table (verified verbatim in test/test_solver.ml).@."

(* ---- Figure 3: TTN/RTN/improvement for k = 2..7 ------------------------------ *)

let fig3 () =
  section "Figure 3: transition improvements for block sizes 2..7";
  let paper =
    [ (2, 2, 0, 100.0); (3, 8, 2, 75.0); (4, 24, 10, 58.3); (5, 64, 32, 50.0);
      (6, 320, 180, 43.8); (7, 384, 234, 39.1) ]
  in
  Format.printf "%4s %18s %18s %12s %10s@." "k" "TTN (ours/paper)"
    "RTN (ours/paper)" "impr ours" "paper";
  List.iter
    (fun (k, pttn, prtn, ppct) ->
      let t = Powercode.Solver.totals ~k () in
      Format.printf "%4d %10d/%-7d %10d/%-7d %11.1f%% %9.1f%%@." k
        t.Powercode.Solver.ttn pttn t.Powercode.Solver.rtn prtn
        t.Powercode.Solver.improvement_pct ppct)
    paper;
  Format.printf
    "Notes: the paper's k=6 row is printed doubled (TTN over all 64 words is \
     provably (k-1)*2^(k-1) = 160); its percentage matches ours.  For k=7 \
     our exhaustive optimum is RTN=236 (38.5%%), 2 transitions above the \
     paper's printed 234.@."

(* ---- Figure 4: k = 5 table under the 8-transformation restriction ------------- *)

let fig4 () =
  section "Figure 4: transformations for 5-bit blocks (8-function set)";
  Format.printf "      X -> X~      tau     Tx Tx~@.";
  let table =
    Powercode.Solver.table ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 ()
  in
  Array.iteri
    (fun w e ->
      if w < 16 then Format.printf "  %a@." (Powercode.Solver.pp_entry ~k:5) e)
    table;
  Format.printf
    "(first half shown, as in the paper; the second half is the bitwise \
     complement under the XOR<->XNOR / NOR<->NAND duality).@.";
  let full = Powercode.Solver.totals ~k:5 () in
  let sub =
    Powercode.Solver.totals ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 ()
  in
  Format.printf
    "Restriction to 8 functions costs nothing: RTN %d (restricted) = %d \
     (all 16), as the paper claims.  Optimal codes are not unique, so a few \
     equal-cost rows differ from the printed table; the Tx~ column matches \
     verbatim (test/test_solver.ml).@."
    sub.Powercode.Solver.rtn full.Powercode.Solver.rtn

(* ---- Section 5.2: the minimal transformation subset ---------------------------- *)

let sec52 () =
  section "Section 5.2: how few transformations suffice?";
  let mins = Powercode.Subset.all_minimal ~kmax:7 in
  Format.printf "Paper claim: a unique 8-function subset achieves optimality \
                 for all k <= 7.@.";
  Format.printf "Our exhaustive hitting-set search: minimum size %d, %d \
                 such set(s):@."
    (List.length (Powercode.Boolfun.list_of_mask (List.hd mins)))
    (List.length mins);
  List.iter
    (fun m ->
      Format.printf "  {";
      List.iter
        (fun f -> Format.printf " %s" (Powercode.Boolfun.name f))
        (Powercode.Boolfun.list_of_mask m);
      Format.printf " }@.")
    mins;
  List.iter
    (fun k ->
      Format.printf "  k=%d: paper-eight optimal: %b; minimal-six optimal: %b@."
        k
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:Powercode.Subset.paper_eight_mask ~k)
        (Powercode.Subset.achieves_per_word_optimal
           ~subset_mask:(Powercode.Subset.canonical_mask ()) ~k))
    [ 2; 3; 4; 5; 6; 7 ];
  Format.printf
    "=> the paper's eight are sufficient (confirmed) but six already \
     suffice; 3-bit TT indices remain the right hardware choice either way.@."

(* ---- Section 6: chained random streams ------------------------------------------ *)

let seeded_stream seed n =
  let state = ref seed in
  Bitutil.Bitvec.init n (fun _ ->
      state := !state lxor (!state lsl 13);
      state := !state lxor (!state lsr 7);
      state := !state lxor (!state lsl 17);
      !state land 1 = 1)

let sec6 () =
  section "Section 6: chained encoding of random 1000-bit streams (k = 5)";
  let trials = 50 in
  let sum_g = ref 0.0 and sum_o = ref 0.0 and worst = ref 100.0 in
  for seed = 1 to trials do
    let s = seeded_stream (seed * 7919) 1000 in
    let t0 = float_of_int (Bitutil.Bitvec.transitions s) in
    let g = Powercode.Chain.encode_greedy ~k:5 s in
    let o = Powercode.Chain.encode_optimal ~k:5 s in
    let rg = 100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions g.Powercode.Chain.code) /. t0)) in
    let ro = 100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions o.Powercode.Chain.code) /. t0)) in
    sum_g := !sum_g +. rg;
    sum_o := !sum_o +. ro;
    if rg < !worst then worst := rg
  done;
  Format.printf
    "paper: within 1%% of the expected 50%% on all cases@.";
  Format.printf
    "ours over %d streams: greedy avg %.2f%%, exact-DP avg %.2f%%, worst \
     single stream %.2f%%@."
    trials (!sum_g /. float_of_int trials) (!sum_o /. float_of_int trials) !worst;
  Format.printf
    "=> the paper's 'iterative approach leads in practice to optimal \
     results' holds: greedy and the exact chain DP coincide to the decimal.@."

(* ---- Figure 6 / Figure 7: the benchmark evaluation -------------------------------- *)

let paper_fig6 =
  [
    ("mmul", 14.0, [ 44.0; 39.2; 26.7; 28.5 ]);
    ("sor", 3.3, [ 44.3; 30.5; 35.3; 20.1 ]);
    ("ej", 113.4, [ 45.5; 38.8; 38.7; 23.1 ]);
    ("fft", 0.2, [ 20.6; 17.5; 13.4; 0.0 ]);
    ("tri", 8.1, [ 51.6; 37.8; 31.1; 24.4 ]);
    ("lu", 63.8, [ 32.7; 23.6; 19.1; 9.4 ]);
  ]

let fig6_reports = ref []

let fig6 () =
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let set = if fast then Workloads.scaled else Workloads.paper_sized in
  section
    (if fast then
       "Figure 6: transition reductions (FAST mode: scaled workloads)"
     else "Figure 6: transition reductions (paper-sized workloads)");
  Format.printf "%-5s %10s %8s | %!" "bench" "#TR(M)" "paper#TR";
  List.iter (fun k -> Format.printf " k=%d ours/paper |" k) [ 4; 5; 6; 7 ];
  Format.printf "@.";
  List.iter
    (fun w ->
      let name = w.Workloads.name in
      (* attribution feeds the per-bitline section of BENCH_encoding.json;
         the ledger feeds its energy section and the ledger printout below;
         [`Auto] additionally scores every region against the registered
         encoder backends and feeds the schemes section *)
      let r =
        Pipeline.Evaluate.evaluate_workload ~attribution:true ~scheme:`Auto
          ~ledger:Ledger.Model.on_chip w
      in
      fig6_reports := (name, r) :: !fig6_reports;
      let _, ptr, ppcts = List.find (fun (n, _, _) -> n = name) paper_fig6 in
      Format.printf "%-5s %10.2f %8.1f |" name
        (float_of_int r.Pipeline.Evaluate.baseline_transitions /. 1e6)
        ptr;
      List.iter2
        (fun (run : Pipeline.Evaluate.encoded_run) ppct ->
          Format.printf "  %4.1f/%4.1f  |" run.Pipeline.Evaluate.reduction_pct ppct)
        r.Pipeline.Evaluate.runs ppcts;
      Format.printf "  (coverage %.0f%%)@.%!" r.Pipeline.Evaluate.coverage_pct)
    set;
  Format.printf
    "Shapes to check against the paper: reductions shrink as k grows on \
     fully covered kernels; fft is the weakest (many very short blocks in \
     its hot loops); bus-invert (below) is ineffective by contrast.@."

let fig7 () =
  section "Figure 7: percentage reduction comparison (bar view of Figure 6)";
  let reports = List.rev !fig6_reports in
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      Format.printf "%-5s@." name;
      List.iter
        (fun (run : Pipeline.Evaluate.encoded_run) ->
          let bar =
            String.make
              (max 0 (int_of_float (run.Pipeline.Evaluate.reduction_pct /. 2.0)))
              '#'
          in
          Format.printf "  k=%d %-26s %.1f%%@." run.Pipeline.Evaluate.k bar
            run.Pipeline.Evaluate.reduction_pct)
        r.Pipeline.Evaluate.runs)
    reports

let businvert_baseline () =
  section "Baseline: bus-invert coding on the same fetch streams";
  Format.printf "%-5s %14s %14s %10s@." "bench" "baseline" "bus-invert" "saved";
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      Format.printf "%-5s %14d %14d %9.2f%%@." name
        r.Pipeline.Evaluate.baseline_transitions
        r.Pipeline.Evaluate.businvert_transitions
        (100.0
        *. (1.0
           -. float_of_int r.Pipeline.Evaluate.businvert_transitions
              /. float_of_int r.Pipeline.Evaluate.baseline_transitions)))
    (List.rev !fig6_reports);
  Format.printf
    "=> the general-purpose encoder saves well under 1%% on instruction \
     streams, the contrast the related-work section draws.@."

(* ---- Section 7.2: hardware cost ---------------------------------------------------- *)

let hw_cost () =
  section "Section 7.2: hardware overhead";
  List.iter
    (fun k ->
      let r = Hardware.Cost.report ~k ~tt_entries:16 ~fn_count:8 () in
      Format.printf "  %a@." Hardware.Cost.pp r)
    [ 4; 5; 6; 7 ];
  Format.printf
    "Paper: a 16-entry TT at k=7 'handles 7*16 = 112 instructions'; the \
     exact one-bit-overlap coverage is 7 + 15*6 = 97.@."

(* ---- Ablations ----------------------------------------------------------------------- *)

let ablation_chain () =
  section "Ablation: greedy vs exact-DP chain encoding (random streams)";
  Format.printf "%4s %14s %14s %10s@." "k" "greedy avg%" "optimal avg%" "gap";
  List.iter
    (fun k ->
      let trials = 30 in
      let sg = ref 0.0 and so = ref 0.0 in
      for seed = 1 to trials do
        let s = seeded_stream ((seed * 131) + k) 600 in
        let t0 = float_of_int (Bitutil.Bitvec.transitions s) in
        let g = Powercode.Chain.encode_greedy ~k s in
        let o = Powercode.Chain.encode_optimal ~k s in
        sg := !sg +. (100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions g.Powercode.Chain.code) /. t0)));
        so := !so +. (100.0 *. (1.0 -. (float_of_int (Bitutil.Bitvec.transitions o.Powercode.Chain.code) /. t0)))
      done;
      let ag = !sg /. float_of_int trials and ao = !so /. float_of_int trials in
      Format.printf "%4d %13.2f%% %13.2f%% %9.3f@." k ag ao (ao -. ag))
    [ 2; 3; 4; 5; 6; 7 ]

let ablation_subset () =
  section "Ablation: transformation universe (16 vs paper-8 vs minimal-6)";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let c = Workloads.compile w in
  let program = c.Minic.Compile.program in
  Format.printf "%10s %14s %12s@." "universe" "transitions" "reduction";
  List.iter
    (fun (label, mask) ->
      let r =
        Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~subset_mask:mask ~name:label
          program
      in
      match r.Pipeline.Evaluate.runs with
      | [ run ] ->
          Format.printf "%10s %14d %11.2f%%@." label
            run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct
      | _ -> assert false)
    [
      ("all-16", Powercode.Boolfun.full_mask);
      ("paper-8", Powercode.Subset.paper_eight_mask);
      ("minimal-6", Powercode.Subset.canonical_mask ());
      ( "identity",
        Powercode.Boolfun.mask_of_list [ Powercode.Boolfun.identity ] );
    ];
  Format.printf
    "=> the restricted sets lose essentially nothing on real code, the \
     design point the hardware's 3-bit indices rely on.@."

let ablation_tt_capacity () =
  section "Ablation: Transformation Table capacity (design-space sweep)";
  let w = Workloads.by_name Workloads.scaled "sor" in
  let c = Workloads.compile w in
  Format.printf "%8s %14s %12s@." "entries" "transitions" "reduction";
  List.iter
    (fun tt ->
      let r =
        Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~tt_capacity:tt
          ~name:(string_of_int tt) c.Minic.Compile.program
      in
      match r.Pipeline.Evaluate.runs with
      | [ run ] ->
          Format.printf "%8d %14d %11.2f%%@." tt run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct
      | _ -> assert false)
    [ 2; 4; 8; 16; 32; 64 ];
  Format.printf
    "=> savings saturate once the table covers the hot loop bodies; the \
     paper's 16 entries sit near the knee for compiler-typical block sizes.@."

(* ---- Analysis: where on the word do the savings come from? ------------------ *)

let per_line_analysis () =
  section "Analysis: per-bit-line transitions (MIPS field structure)";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let r = Pipeline.Evaluate.evaluate_workload ~ks:[ 5 ] ~attribution:true w in
  let a = Option.get r.Pipeline.Evaluate.attribution in
  let pb = a.Trace.Attribution.line_baseline in
  let pe = a.Trace.Attribution.line_encoded.(0) in
  let field line =
    (* MIPS I-type fields, which dominate compiled code *)
    if line >= 26 then "opcode"
    else if line >= 21 then "rs"
    else if line >= 16 then "rt"
    else "imm/rd/funct"
  in
  Format.printf "%4s %-12s %12s %12s %8s@." "line" "field" "baseline"
    "encoded" "saved";
  for line = 31 downto 0 do
    Format.printf "%4d %-12s %12d %12d %7.1f%%@." line (field line) pb.(line)
      pe.(line)
      (if pb.(line) = 0 then 0.0
       else 100.0 *. (1.0 -. (float_of_int pe.(line) /. float_of_int pb.(line))))
  done;
  Format.printf
    "=> the register and immediate fields toggle most (operands vary \
     instruction to instruction) and also yield the bulk of the savings; \
     opcode lines are quieter, matching the vertical-stream intuition of \
     Figure 1.@."

(* ---- Ablation: what do basic-block boundaries cost? ------------------------ *)

let ablation_bb_boundaries () =
  section "Ablation: cost of basic-block boundaries (static upper bound)";
  Format.printf
    "Encoding cannot cross branch targets (the decoder would desynchronise); \
     this compares real per-block encoding against an idealised single chain \
     over the whole image, statically.@.";
  Format.printf "%-5s %10s %14s %16s@." "bench" "static TR" "per-block saved"
    "one-chain bound";
  List.iter
    (fun w ->
      let c = Workloads.compile w in
      let program = c.Minic.Compile.program in
      let words = Isa.Program.words program in
      let m = Bitutil.Bitmat.of_words ~width:32 words in
      let static = Bitutil.Bitmat.transitions m in
      (* idealised: one chain per line over the whole image *)
      let ideal =
        Array.init 32 (fun line ->
            let col = Bitutil.Bitmat.column m line in
            let e =
              Powercode.Chain.encode_greedy
                ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 col
            in
            Bitutil.Bitvec.transitions e.Powercode.Chain.code)
        |> Array.fold_left ( + ) 0
      in
      (* real: per basic block, every block encoded (no TT limit), counted
         over the whole stored image including inter-block seams *)
      let blocks = Cfg.Block.partition (Isa.Program.insns program) in
      let config =
        {
          (Powercode.Program_encoder.default_config ()) with
          Powercode.Program_encoder.tt_capacity = max_int / 2;
        }
      in
      let image = Array.copy words in
      Array.iter
        (fun (b : Cfg.Block.t) ->
          if b.Cfg.Block.len >= 2 then begin
            let body =
              Bitutil.Bitmat.of_words ~width:32
                (Array.sub words b.Cfg.Block.start b.Cfg.Block.len)
            in
            let enc = Powercode.Program_encoder.encode_block config body in
            Array.blit
              (Bitutil.Bitmat.words enc.Powercode.Program_encoder.encoded)
              0 image b.Cfg.Block.start b.Cfg.Block.len
          end)
        blocks;
      let per_block =
        Bitutil.Bitmat.transitions (Bitutil.Bitmat.of_words ~width:32 image)
      in
      let pct x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int static)) in
      Format.printf "%-5s %10d %13.1f%% %15.1f%%@." w.Workloads.name static
        (pct per_block) (pct ideal))
    Workloads.scaled;
  Format.printf
    "(the gap combines seam losses between blocks, pass-through head \
     instructions, and blocks too short to encode -- the structural price \
     of branchability the paper accepts.)@."

(* ---- Extension: longer histories (the paper's unexplored h > 1) ---------- *)

let multihistory () =
  section "Extension: history length sweep (the paper stops at h = 1)";
  Format.printf
    "%4s | %-24s | %-24s | %-24s@." "k" "h=1 RTN (impr)" "h=2 RTN (impr)"
    "h=3 RTN (impr)";
  List.iter
    (fun k ->
      Format.printf "%4d |" k;
      List.iter
        (fun h ->
          let t = Powercode.Multihistory.totals ~h ~k in
          Format.printf " %6d (%5.1f%%)         |" t.Powercode.Multihistory.rtn
            t.Powercode.Multihistory.improvement_pct)
        [ 1; 2; 3 ];
      Format.printf "@.")
    [ 2; 3; 4; 5; 6; 7 ];
  Format.printf
    "=> longer histories are surprisingly potent at large block sizes (k=7: \
     38.5%% -> 59.4%% -> 73.4%%), because more equations become satisfiable \
     per block -- but the function space squares each step (16 -> 256 -> \
     65536) and with it the per-line index bits (3 -> 8 -> 16), eroding the \
     TT frugality that motivates the paper's h = 1 choice.@."

(* ---- Extension: storage-type invariance (paper section 8 claim) --------- *)

let storage_invariance () =
  section
    "Extension: 'the type of storage bears no impact' (I-cache experiment)";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let c = Workloads.compile w in
  let program = c.Minic.Compile.program in
  let words = Isa.Program.words program in
  let system =
    match Pipeline.Evaluate.prepare ~ks:[ 5 ] program with
    | [ p ] -> p.Pipeline.Evaluate.prep_system
    | _ -> assert false
  in
  let cache_cfg = { Machine.Icache.lines = 8; words_per_line = 4 } in
  let cache_base = Machine.Icache.create cache_cfg ~image:words in
  let cache_enc =
    Machine.Icache.create cache_cfg ~image:system.Hardware.Reprogram.image
  in
  let proc_base = Buspower.Buscount.create () in
  let proc_enc = Buspower.Buscount.create () in
  let state = Machine.Cpu.create_state () in
  let on_fetch ~pc =
    let wb, _ = Machine.Icache.access cache_base ~pc in
    let we, _ = Machine.Icache.access cache_enc ~pc in
    Buspower.Buscount.observe proc_base wb;
    Buspower.Buscount.observe proc_enc we
  in
  let result = Machine.Cpu.run ~on_fetch program state in
  let sb = Machine.Icache.stats cache_base in
  let se = Machine.Icache.stats cache_enc in
  let pb = Buspower.Buscount.total proc_base in
  let pe = Buspower.Buscount.total proc_enc in
  Format.printf
    "mmul (scaled), %d fetches, 8x4-word direct-mapped I-cache, miss rate \
     %.2f%%@."
    result.Machine.Cpu.instructions
    (100.0 *. float_of_int sb.Machine.Icache.misses
    /. float_of_int sb.Machine.Icache.accesses);
  Format.printf
    "  processor-side bus:  baseline %d, encoded %d (%.1f%% saved) -- \
     identical savings with or without a cache@."
    pb pe
    (100.0 *. (1.0 -. (float_of_int pe /. float_of_int pb)));
  Format.printf
    "  memory-side refills: baseline %d transitions / %d words, encoded %d \
     (%.1f%% saved through the static layout)@."
    sb.Machine.Icache.memory_transitions sb.Machine.Icache.memory_words
    se.Machine.Icache.memory_transitions
    (100.0
    *. (1.0
       -. float_of_int se.Machine.Icache.memory_transitions
          /. float_of_int sb.Machine.Icache.memory_transitions))

(* ---- Extension: the address bus under T0 ---------------------------------- *)

let address_bus () =
  section "Extension: address bus alongside (T0 / Gray on the PC trace)";
  Format.printf "%-5s %14s %12s %12s@." "bench" "raw addr bus" "T0 (saved)"
    "Gray (saved)";
  List.iter
    (fun w ->
      let c = Workloads.compile w in
      let t0 = Buspower.T0.create ~width:16 () in
      let raw = Buspower.Buscount.create ~width:16 () in
      let gray = Buspower.Buscount.create ~width:16 () in
      let state = Machine.Cpu.create_state () in
      let on_fetch ~pc =
        Buspower.T0.observe t0 pc;
        Buspower.Buscount.observe raw pc;
        Buspower.Buscount.observe gray (Buspower.Gray.encode pc)
      in
      let _ = Machine.Cpu.run ~on_fetch c.Minic.Compile.program state in
      let r = Buspower.Buscount.total raw
      and t = Buspower.T0.transitions t0
      and g = Buspower.Buscount.total gray in
      let pct x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int r)) in
      Format.printf "%-5s %14d %5.1f%% %5.1f%%@." w.Workloads.name r (pct t)
        (pct g))
    Workloads.scaled;
  Format.printf
    "=> the sequentiality the T0 paper exploits is real: combining address \
     and data-bus encodings attacks the whole instruction path.@."

let ablation_compiler () =
  section "Ablation: compiler quality (O0 naive vs O1 folding+regalloc)";
  Format.printf
    "The paper compiled with a production toolchain; ours is simpler.  This \
     sweep shows how code quality moves the encoding's efficacy (shorter \
     loop bodies fit the TT at smaller k, restoring the paper's decay \
     shape).@.";
  Format.printf "%-5s %6s | %18s | %18s@." "bench" "level" "dynamic insns"
    "reduction k=4/5/6/7";
  List.iter
    (fun w ->
      List.iter
        (fun (label, opt) ->
          let c = Minic.Compile.compile ~opt w.Workloads.source in
          let r =
            Pipeline.Evaluate.evaluate ~name:w.Workloads.name
              c.Minic.Compile.program
          in
          Format.printf "%-5s %6s | %18d |" w.Workloads.name label
            r.Pipeline.Evaluate.instructions;
          List.iter
            (fun (run : Pipeline.Evaluate.encoded_run) ->
              Format.printf " %5.1f" run.Pipeline.Evaluate.reduction_pct)
            r.Pipeline.Evaluate.runs;
          Format.printf "@.")
        [ ("O0", Minic.Compile.O0); ("O1", Minic.Compile.O1) ])
    [ Workloads.by_name Workloads.scaled "sor";
      Workloads.by_name Workloads.scaled "mmul" ]

(* ---- Extension: workloads beyond the paper's six ---------------------------- *)

let extended_reports = ref []

let extended_workloads () =
  section "Extension: additional DSP kernels (FIR / IIR / DCT)";
  Format.printf "%-5s %10s | %s@." "bench" "#TR" "reduction k=4/5/6/7";
  List.iter
    (fun w ->
      let r =
        Pipeline.Evaluate.evaluate_workload ~attribution:true ~scheme:`Auto
          ~ledger:Ledger.Model.on_chip w
      in
      extended_reports := (w.Workloads.name, r) :: !extended_reports;
      Format.printf "%-5s %10d |" w.Workloads.name
        r.Pipeline.Evaluate.baseline_transitions;
      List.iter
        (fun (run : Pipeline.Evaluate.encoded_run) ->
          Format.printf " %5.1f" run.Pipeline.Evaluate.reduction_pct)
        r.Pipeline.Evaluate.runs;
      Format.printf "  (coverage %.0f%%)@." r.Pipeline.Evaluate.coverage_pct)
    Workloads.extended;
  Format.printf
    "=> the technique generalises beyond the paper's suite to the DSP \
     kernels its introduction motivates.@."

(* ---- Energy ledger: net savings after charging the overheads ---------------- *)

let energy_ledger () =
  section "Energy ledger: net savings after overheads (on-chip model)";
  let reports = List.rev !fig6_reports @ List.rev !extended_reports in
  List.iter
    (fun (_, (r : Pipeline.Evaluate.report)) ->
      match r.Pipeline.Evaluate.ledger with
      | Some sheet -> Format.printf "%a@." Ledger.Sheet.pp sheet
      | None -> ())
    reports;
  Format.printf
    "=> the bus savings survive the support hardware on the small block \
     sizes; `powercode report` renders the full dashboard, and the ledger \
     section of BENCH_encoding.json carries the itemized counts.@."

(* ---- Scheme selection: which encoder backend wins each region? --------------- *)

let scheme_table () =
  section "Scheme selection: auto-chosen encoder backends (per benchmark, per k)";
  let reports = List.rev !fig6_reports @ List.rev !extended_reports in
  Format.printf "%-5s %3s | %12s %12s %9s | %s@." "bench" "k" "auto energy"
    "tt energy" "reverted" "regions by scheme";
  List.iter
    (fun (name, (r : Pipeline.Evaluate.report)) ->
      List.iter
        (fun (s : Pipeline.Evaluate.scheme_run) ->
          Format.printf "%-5s %3d | %12.4e %12.4e %9b |" name
            s.Pipeline.Evaluate.srun_k s.Pipeline.Evaluate.auto_energy_j
            s.Pipeline.Evaluate.tt_energy_j s.Pipeline.Evaluate.reverted;
          List.iter
            (fun (scheme, n) -> Format.printf " %s=%d" scheme n)
            s.Pipeline.Evaluate.scheme_counts;
          Format.printf "@.")
        r.Pipeline.Evaluate.schemes)
    reports;
  Format.printf
    "=> the selector charges each alternative its redundant-line seams and \
     side-table reads; on these kernels the application-specific TT scheme \
     wins every region, and the commit rule guarantees auto never reports \
     more energy than all-TT.  `--scheme <name>` on the CLI forces a \
     backend for comparison.@."

(* ---- Bechamel micro-benchmarks -------------------------------------------------------- *)

(* The seed's chain encoder, kept verbatim as the before/after baseline: the
   immutable [Bitvec.set] copies the whole backing store on every bit write,
   which made per-line encoding quadratic in block length.  The Bechamel
   section below measures the builder rewrite against it. *)
module Seed_style = struct
  module Bitvec = Bitutil.Bitvec
  module Codetable = Powercode.Codetable

  let subword stream ~pos ~len =
    let w = ref 0 in
    for i = len - 1 downto 0 do
      w := (!w lsl 1) lor (if Bitvec.get stream (pos + i) then 1 else 0)
    done;
    !w

  let blit_code code ~pos ~len value =
    let c = ref code in
    for i = 0 to len - 1 do
      c := Bitvec.set !c (pos + i) (value lsr i land 1 = 1)
    done;
    !c

  let encode_greedy ?(subset_mask = Powercode.Boolfun.full_mask) ~k stream =
    let n = Bitvec.length stream in
    let spans = Powercode.Chain.block_spans ~n ~k in
    let code = ref (Bitvec.create n) in
    let taus = ref [] in
    let encode_block (start, len) =
      let table = Codetable.get ~subset_mask ~k:len () in
      let word = subword stream ~pos:start ~len in
      let choice =
        if start = 0 then Codetable.standalone table ~word
        else
          let b_in = Bitvec.get !code start in
          Codetable.chained_best table ~b_in ~word
      in
      code := blit_code !code ~pos:start ~len choice.Codetable.code;
      taus := choice.Codetable.tau :: !taus
    in
    List.iter encode_block spans;
    {
      Powercode.Chain.code = !code;
      taus = Array.of_list (List.rev !taus);
      k;
    }
end

(* measured by the Bechamel section, recorded into BENCH_encoding.json *)
let chain256_measurement = ref None

let estimate_ns name fn =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let test =
    Test.make_grouped ~name:"" [ Test.make ~name (Staged.stage fn) ]
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ result acc ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Some est
      | Some _ | None -> acc)
    results None

let human_ns v =
  if v > 1e9 then Printf.sprintf "%.2f s" (v /. 1e9)
  else if v > 1e6 then Printf.sprintf "%.2f ms" (v /. 1e6)
  else if v > 1e3 then Printf.sprintf "%.2f us" (v /. 1e3)
  else Printf.sprintf "%.0f ns" v

let bechamel_suite () =
  section "Bechamel: cost of regenerating each experiment";
  let stream = seeded_stream 424242 1000 in
  let block_words =
    let st = ref 99 in
    Array.init 24 (fun _ ->
        st := !st lxor (!st lsl 13);
        st := !st lxor (!st lsr 7);
        st := !st lxor (!st lsl 17);
        !st land 0xffffffff)
  in
  let matrix = Bitutil.Bitmat.of_words ~width:32 block_words in
  let config = Powercode.Program_encoder.default_config () in
  let quick = Workloads.by_name Workloads.scaled "fft" in
  let compiled = Workloads.compile quick in
  let tests =
    [
      ("fig2_table_k3", fun () -> ignore (Powercode.Solver.table ~k:3 ()));
      ("fig3_totals_k7", fun () -> ignore (Powercode.Solver.totals ~k:7 ()));
      ( "fig4_table_k5_subset",
        fun () ->
          ignore
            (Powercode.Solver.table
               ~subset_mask:Powercode.Subset.paper_eight_mask ~k:5 ()) );
      ( "sec6_chain_1000bits",
        fun () -> ignore (Powercode.Chain.encode_greedy ~k:5 stream) );
      ( "sec6_chain_dp_1000bits",
        fun () -> ignore (Powercode.Chain.encode_optimal ~k:5 stream) );
      ( "fig6_block_encode_24x32",
        fun () -> ignore (Powercode.Program_encoder.encode_block config matrix)
      );
      ( "fig6_pipeline_fft_scaled",
        fun () ->
          ignore
            (Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~name:"fft"
               compiled.Minic.Compile.program) );
    ]
  in
  List.iter
    (fun (name, fn) ->
      match estimate_ns name fn with
      | Some est -> Format.printf "  %-28s %12s/run@." name (human_ns est)
      | None -> Format.printf "  %-28s (no estimate)@." name)
    tests;
  (* before/after: the seed's copy-on-write per-line encode against the
     word-packed builder rewrite, on one 256-instruction column stream *)
  Format.printf "@.Per-line chain encode, 256-bit stream, k=5:@.";
  let stream256 = seeded_stream 31337 256 in
  (* prove the two produce the same encoding before timing them *)
  let reference = Powercode.Chain.encode_greedy ~k:5 stream256 in
  let legacy = Seed_style.encode_greedy ~k:5 stream256 in
  assert (Bitutil.Bitvec.equal reference.Powercode.Chain.code
            legacy.Powercode.Chain.code);
  let new_ns =
    estimate_ns "chain_encode_256_builder" (fun () ->
        ignore (Powercode.Chain.encode_greedy ~k:5 stream256))
  in
  let old_ns =
    estimate_ns "chain_encode_256_seedstyle" (fun () ->
        ignore (Seed_style.encode_greedy ~k:5 stream256))
  in
  match (new_ns, old_ns) with
  | Some n, Some o ->
      chain256_measurement := Some (n, o);
      Format.printf "  %-28s %12s/run@." "builder (current)" (human_ns n);
      Format.printf "  %-28s %12s/run@." "seed-style copy-on-write"
        (human_ns o);
      Format.printf "  speedup: %.1fx %s@." (o /. n)
        (if o /. n >= 10.0 then "(>= 10x target met)"
         else "(below the 10x target!)")
  | _ -> Format.printf "  (no estimate for the chain comparison)@."

(* ---- Raw-speed campaign: domains sweep, plan cache, allocation counts ------ *)

(* The sweep repins POWERCODE_DOMAINS per leg; both Parpool env variables
   are consulted on every call, and every call spawns its own domains, so
   each leg runs at its width without restarting the process.  Restoring
   to "" behaves like unset: the parser rejects the empty string and falls
   back to the default. *)
let with_domains n f =
  let saved = Sys.getenv_opt "POWERCODE_DOMAINS" in
  Unix.putenv "POWERCODE_DOMAINS" (string_of_int n);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "POWERCODE_DOMAINS" (Option.value saved ~default:""))
    f

type throughput_leg = {
  requested_domains : int;
  leg_domains : int;  (** worker_count () + 1 as the leg actually ran *)
  campaign_injections : int;
  campaign_s : float;
  injections_per_s : float;
  encode_s : float;
  bits_per_s : float;
}

let throughput_legs = ref []

let throughput_sweep () =
  section
    "Throughput sweep: fault campaign vs domain count, block encode on the \
     calling domain";
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let benches =
    List.map
      (Workloads.by_name Workloads.scaled)
      [ "sor"; "fft"; "tri" ]
  in
  let injections = if fast then 150 else 400 in
  let campaign_config =
    { Fault.Campaign.seed = 7; injections; ks = [ 4; 5 ]; benches }
  in
  (* 256 x 32; the encoder runs on the calling domain at every width *)
  let rows = 256 in
  let block_words =
    let st = ref 4242 in
    Array.init rows (fun _ ->
        st := !st lxor (!st lsl 13);
        st := !st lxor (!st lsr 7);
        st := !st lxor (!st lsl 17);
        !st land 0xffffffff)
  in
  let matrix = Bitutil.Bitmat.of_words ~width:32 block_words in
  let enc_config = Powercode.Program_encoder.default_config () in
  let reference_totals = ref None in
  let leg requested =
    with_domains requested (fun () ->
        let leg_domains = Powercode.Parpool.worker_count () + 1 in
        let t0 = Unix.gettimeofday () in
        let report = Fault.Campaign.run campaign_config in
        let campaign_s = Unix.gettimeofday () -. t0 in
        (* classification must not depend on the domain count; the gate for
           this is test/test_fault.ml, but the bench double-checks for free *)
        (match !reference_totals with
        | None -> reference_totals := Some report.Fault.Campaign.totals
        | Some t -> assert (t = report.Fault.Campaign.totals));
        let t1 = Unix.gettimeofday () in
        let reps = ref 0 in
        let elapsed = ref 0.0 in
        while !elapsed < 0.25 do
          ignore (Powercode.Program_encoder.encode_block enc_config matrix);
          incr reps;
          elapsed := Unix.gettimeofday () -. t1
        done;
        let encode_s = !elapsed in
        let bits = rows * 32 * !reps in
        {
          requested_domains = requested;
          leg_domains;
          campaign_injections = injections;
          campaign_s;
          injections_per_s = float_of_int injections /. campaign_s;
          encode_s;
          bits_per_s = float_of_int bits /. encode_s;
        })
  in
  let legs =
    List.map leg [ 1; 2; Powercode.Parpool.max_workers ]
  in
  throughput_legs := legs;
  Format.printf "%9s %8s | %12s %14s | %14s@." "requested" "domains"
    "campaign (s)" "injections/s" "caller bits/s";
  List.iter
    (fun l ->
      Format.printf "%9d %8d | %12.2f %14.0f | %14.3e@." l.requested_domains
        l.leg_domains l.campaign_s l.injections_per_s l.bits_per_s)
    legs;
  Format.printf
    "(cores here: %d; classification totals verified identical on every \
     leg — the parallel campaign is a pure function of the seed.  The \
     encoder never uses the pool, so caller bits/s is one domain's rate on \
     every leg.)@."
    (Domain.recommended_domain_count ())

(* ---- Plan cache: repeated evaluate, cold vs warm ---------------------------- *)

let plan_cache_measurement = ref None

let plan_cache_sweep () =
  section "Plan cache: repeated prepare, cold vs warm";
  let w = Workloads.by_name Workloads.scaled "mmul" in
  let program = (Workloads.compile w).Minic.Compile.program in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* [prepare] is the phase the cache fronts (profile + block selection +
     one plan per k), timed alone so the ratio measures the cache and
     nothing else.  Cold samples each clear the cache first; the
     final clear is the baseline for the hit/miss counters, leaving the
     exact one-miss-three-hits pattern the gate diffs. *)
  let run () = ignore (Pipeline.Evaluate.prepare program) in
  run ();
  (* warm-up: process-global memo caches (codetables) out of the picture *)
  let cold_reps = 3 in
  let cold_total = ref 0.0 in
  for _ = 1 to cold_reps do
    Pipeline.Evaluate.Plan_cache.clear ();
    cold_total := !cold_total +. time run
  done;
  let cold_s = !cold_total /. float_of_int cold_reps in
  let warm_runs = 3 in
  let warm_total = time (fun () -> for _ = 1 to warm_runs do run () done) in
  let warm_s = warm_total /. float_of_int warm_runs in
  (* counted since the last clear in the cold loop: one miss (the final
     cold prepare) then three hits — a function of the call sequence
     alone, so the regression gate diffs these two exactly *)
  let hits, misses = Pipeline.Evaluate.Plan_cache.stats () in
  plan_cache_measurement := Some (hits, misses, cold_s, warm_s);
  Format.printf
    "  cold %.1f ms x%d (profile + plans), warm %.1f ms x%d (cache hit): \
     %.2fx@."
    (cold_s *. 1e3) cold_reps (warm_s *. 1e3) warm_runs (cold_s /. warm_s);
  Format.printf "  plan-cache hits %d, misses %d (exact, gated)@." hits misses

(* ---- Allocation accounting: before/after the zero-alloc encode core --------- *)

let alloc_rows = 24
let alloc_measurement = ref None

let alloc_accounting () =
  section "Allocation: minor words per block encode (before/after)";
  (* both paths run entirely on this domain, so Gc.minor_words sees every
     word they allocate *)
  let block_words =
    let st = ref 991 in
    Array.init alloc_rows (fun _ ->
        st := !st lxor (!st lsl 13);
        st := !st lxor (!st lsr 7);
        st := !st lxor (!st lsl 17);
        !st land 0xffffffff)
  in
  let matrix = Bitutil.Bitmat.of_words ~width:32 block_words in
  let config = Powercode.Program_encoder.default_config () in
  (* the pre-arena shape of encode_block: one Bitvec per column, each chain
     encoded separately, reassembled with of_columns *)
  let legacy () =
    let cols =
      Array.init 32 (fun b ->
          let col = Bitutil.Bitmat.column matrix b in
          let e =
            Powercode.Chain.encode_greedy
              ~subset_mask:config.Powercode.Program_encoder.subset_mask
              ~k:config.Powercode.Program_encoder.k col
          in
          e.Powercode.Chain.code)
    in
    ignore (Bitutil.Bitmat.of_columns cols)
  in
  let arena () =
    ignore (Powercode.Program_encoder.encode_block config matrix)
  in
  let minor_words_per f =
    f ();
    (* warm-up: code tables and scratch build once, outside the count *)
    let reps = 64 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int reps
  in
  let before = minor_words_per legacy in
  let after = minor_words_per arena in
  alloc_measurement := Some (before, after);
  Format.printf "  before (column Bitvecs): %10.0f minor words/block@." before;
  Format.printf "  after  (scratch arena):  %10.0f minor words/block@." after;
  Format.printf
    "  %.1fx fewer; what remains is the result matrix and TT entries — the \
     chain inner loop itself no longer allocates.@."
    (before /. Float.max 1.0 after)

(* ---- Observability: sampler exercise, pool utilization, per-phase GC -------- *)

(* One more evaluate feeds the metrics, then the live sampler runs over a
   fixed wall window: the sample count tracks the clock alone
   (window / interval), not machine speed, so the banded JSON leaf stays
   well inside the gate's band on slow runners.  The pool and GC figures
   themselves are read from the cumulative freeze at JSON-write time —
   everything before this point in the run (including the domains sweep)
   has already fed them. *)

let sampler_interval_ms = 10
let sampler_window_s = 0.15
let observability_measurement = ref None

let observability_sweep () =
  section "Observability: live sampler, pool utilization, per-phase GC";
  let w = Workloads.by_name Workloads.scaled "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  ignore (Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~name:w.Workloads.name program);
  let lines = ref 0 in
  let sampler =
    Telemetry.Sampler.start
      ~interval_s:(float_of_int sampler_interval_ms /. 1e3)
      ~sink:(fun _line -> incr lines)
      ()
  in
  Unix.sleepf sampler_window_s;
  Telemetry.Sampler.stop sampler;
  (* the sink runs on the sampler domain; stop joins it, so the count is
     settled and must agree with the sampler's own *)
  assert (!lines = Telemetry.Sampler.samples sampler);
  observability_measurement := Some !lines;
  Format.printf "  sampler: %d samples at %d ms over a %.0f ms window@."
    !lines sampler_interval_ms (sampler_window_s *. 1e3);
  let c = Telemetry.Metrics.counter_total in
  let busy = c Telemetry.Registry.parpool_busy_ns in
  let idle = c Telemetry.Registry.parpool_idle_ns in
  let chunks = c Telemetry.Registry.parpool_chunks in
  let width = Telemetry.Metrics.gauge_value Telemetry.Registry.parpool_width 0 in
  let util =
    if busy + idle = 0 then 0.0
    else 100.0 *. float_of_int busy /. float_of_int (busy + idle)
  in
  Format.printf
    "  pool: width %d, utilization %.1f%% (busy %.1f ms, idle %.1f ms, %d \
     chunks)@."
    width util
    (float_of_int busy /. 1e6)
    (float_of_int idle /. 1e6)
    chunks;
  Format.printf "  %6s %12s %12s %8s@." "slot" "busy ms" "idle ms" "tasks";
  for i = 0 to Telemetry.Registry.pool_slots - 1 do
    let g m = Telemetry.Metrics.gauge_value m i in
    let b = g Telemetry.Registry.parpool_worker_busy_ns in
    let id = g Telemetry.Registry.parpool_worker_idle_ns in
    let t = g Telemetry.Registry.parpool_worker_tasks in
    if b + id + t > 0 then
      Format.printf "  %6s %12.1f %12.1f %8d@."
        (Telemetry.Registry.pool_slot_label i)
        (float_of_int b /. 1e6)
        (float_of_int id /. 1e6)
        t
  done;
  Format.printf "  %8s %14s %14s %8s@." "gc phase" "minor words" "major words"
    "colls";
  List.iter
    (fun (name, mw, jw, mc, jc) ->
      Format.printf "  %8s %14d %14d %8d@." name (c mw) (c jw) (c mc + c jc))
    [
      ( "profile",
        Telemetry.Registry.gc_profile_minor_words,
        Telemetry.Registry.gc_profile_major_words,
        Telemetry.Registry.gc_profile_minor_collections,
        Telemetry.Registry.gc_profile_major_collections );
      ( "plan",
        Telemetry.Registry.gc_plan_minor_words,
        Telemetry.Registry.gc_plan_major_words,
        Telemetry.Registry.gc_plan_minor_collections,
        Telemetry.Registry.gc_plan_major_collections );
      ( "count",
        Telemetry.Registry.gc_count_minor_words,
        Telemetry.Registry.gc_count_major_words,
        Telemetry.Registry.gc_count_minor_collections,
        Telemetry.Registry.gc_count_major_collections );
    ];
  let exposition =
    Telemetry.Openmetrics.to_string (Telemetry.Metrics.freeze ())
  in
  match Telemetry.Openmetrics.validate exposition with
  | Ok () ->
      Format.printf "  openmetrics exposition: %d bytes, valid@."
        (String.length exposition)
  | Error e -> Format.printf "  openmetrics exposition: INVALID (%s)@." e

(* ---- Event log: pinned-window structured events ----------------------------- *)

(* The gate diffs Stable event counts exactly, so the window must be a
   pure function of the workload: clear the log and the plan cache, then
   run a fixed sequence — two [`Auto] evaluates (the second served
   entirely from the cache) and a small seeded campaign.  Everything the
   window emits is Stable by construction; Runtime events (worker
   lifecycle) fire at pool spawn and process exit, outside any window,
   and their JSON leaf is banded regardless. *)

type eventlog_measurement = {
  ev_stable : int;
  ev_runtime : int;
  ev_dropped : int;
  ev_bytes : int;
  ev_run_id_present : bool;
  ev_levels : (string * int) list;
  ev_slugs : (string * int) list;
}

let eventlog_result = ref None

let eventlog_sweep () =
  section "Event log: pinned-window structured events";
  let w = Workloads.by_name Workloads.scaled "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  Telemetry.Log.clear ();
  Pipeline.Evaluate.Plan_cache.clear ();
  ignore
    (Pipeline.Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto
       ~name:w.Workloads.name program);
  ignore
    (Pipeline.Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto
       ~name:w.Workloads.name program);
  let benches = [ Workloads.by_name Workloads.scaled "sor" ] in
  ignore
    (Fault.Campaign.run
       { Fault.Campaign.seed = 11; injections = 24; ks = [ 5 ]; benches });
  let events = Telemetry.Log.events () in
  let stable, runtime =
    List.partition
      (fun e -> e.Telemetry.Log.stability = Telemetry.Metrics.Stable)
      events
  in
  (* serialize every line once: the byte total feeds the JSON, and the
     parse-back proves each carries the run id (codec round-trip) *)
  let bytes = ref 0 and with_run_id = ref 0 in
  List.iter
    (fun e ->
      let line = Telemetry.Log.to_json e in
      bytes := !bytes + String.length line + 1;
      match Telemetry.Log.of_json line with
      | Ok (id, _) when id <> "" -> incr with_run_id
      | _ -> ())
    events;
  let m =
    {
      ev_stable = List.length stable;
      ev_runtime = List.length runtime;
      ev_dropped = Telemetry.Log.dropped ();
      ev_bytes = !bytes;
      ev_run_id_present = !with_run_id = List.length events;
      ev_levels = Telemetry.Log.by_level ();
      ev_slugs = Telemetry.Log.by_event ();
    }
  in
  eventlog_result := Some m;
  Format.printf
    "  window: %d events (%d stable, %d runtime), %d dropped, %d bytes, \
     run_id on all: %b@."
    (List.length events) m.ev_stable m.ev_runtime m.ev_dropped m.ev_bytes
    m.ev_run_id_present;
  List.iter
    (fun (slug, n) -> Format.printf "  %9d  %s@." n slug)
    m.ev_slugs

(* ---- Encoding-engine timings: BENCH_encoding.json ------------------------------------- *)

(* Machine-readable trajectory record: ns/instruction for block encode,
   block decode, and the full pipeline evaluation, per workload.  Format
   documented in EXPERIMENTS.md; future PRs diff these numbers. *)

let time_ns_per_rep ?(min_time = 0.15) f =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed *. 1e9 /. float_of_int !reps

type encoding_timing = {
  wname : string;
  static_insns : int;
  dynamic_insns : int;
  encode_ns_per_insn : float;
  decode_ns_per_insn : float;
  evaluate_ns_per_insn : float;
}

let measure_workload w =
  let compiled = Workloads.compile w in
  let program = compiled.Minic.Compile.program in
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  let profile, _ = Cfg.Profile.collect program in
  let bodies =
    Array.to_list blocks
    |> List.filter (fun (b : Cfg.Block.t) ->
           Cfg.Profile.block_weight profile b > 0 && b.Cfg.Block.len >= 2)
    |> List.map (fun (b : Cfg.Block.t) ->
           Bitutil.Bitmat.of_words ~width:32
             (Array.sub words b.Cfg.Block.start b.Cfg.Block.len))
  in
  let static_insns =
    max 1 (List.fold_left (fun s m -> s + Bitutil.Bitmat.rows m) 0 bodies)
  in
  let config = Powercode.Program_encoder.default_config () in
  let encode_all () =
    List.iter
      (fun m -> ignore (Powercode.Program_encoder.encode_block config m))
      bodies
  in
  let encodings =
    List.map (fun m -> Powercode.Program_encoder.encode_block config m) bodies
  in
  let decode_all () =
    List.iter
      (fun (e : Powercode.Program_encoder.block_encoding) ->
        ignore
          (Powercode.Program_encoder.decode_block ~k:config.Powercode.Program_encoder.k
             ~entries:e.Powercode.Program_encoder.entries
             e.Powercode.Program_encoder.encoded))
      encodings
  in
  let encode_ns = time_ns_per_rep encode_all in
  let decode_ns = time_ns_per_rep decode_all in
  let report = ref None in
  let evaluate_ns =
    time_ns_per_rep (fun () ->
        report :=
          Some
            (Pipeline.Evaluate.evaluate ~ks:[ 5 ] ~name:w.Workloads.name
               program))
  in
  let dynamic_insns =
    match !report with
    | Some r -> max 1 r.Pipeline.Evaluate.instructions
    | None -> 1
  in
  {
    wname = w.Workloads.name;
    static_insns;
    dynamic_insns;
    encode_ns_per_insn = encode_ns /. float_of_int static_insns;
    decode_ns_per_insn = decode_ns /. float_of_int static_insns;
    evaluate_ns_per_insn = evaluate_ns /. float_of_int dynamic_insns;
  }

(* ---- Telemetry: where the encode pipeline spends its work ------------------ *)

let telemetry_report () =
  section "Telemetry: encode-pipeline counters and spans";
  Format.printf "%a" Telemetry.Report.pp_human (Telemetry.Metrics.freeze ());
  Format.printf
    "(schema in the Telemetry.Registry module; stable counters are \
     order-independent across POWERCODE_SEQ settings — asserted by \
     test/test_differential.ml.)@."

let bench_encoding_json () =
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let set = if fast then Workloads.scaled else Workloads.paper_sized in
  section "Encoding engine: ns/instruction (writes BENCH_encoding.json)";
  Format.printf "%-5s %10s %10s | %12s %12s %12s@." "bench" "static" "dynamic"
    "encode" "decode" "evaluate";
  let timings = List.map measure_workload set in
  List.iter
    (fun t ->
      Format.printf "%-5s %10d %10d | %9.1f ns %9.1f ns %9.1f ns@.%!" t.wname
        t.static_insns t.dynamic_insns t.encode_ns_per_insn
        t.decode_ns_per_insn t.evaluate_ns_per_insn)
    timings;
  let oc = open_out "BENCH_encoding.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"powercode-bench-encoding/8\",\n";
  p "  \"mode\": \"%s\",\n" (if fast then "fast" else "full");
  (* run conditions, so a regression gate can refuse apples-to-oranges
     diffs (bench/compare.ml); cores lets the gate skip parallel speedup
     floors that are physically unattainable on single-core runners *)
  p "  \"settings\": {\"powercode_fast\": %b, \"powercode_seq\": %b, \"domains\": %d, \"cores\": %d},\n"
    fast
    (Powercode.Parpool.sequential_mode ())
    (Powercode.Parpool.worker_count () + 1)
    (Domain.recommended_domain_count ());
  p "  \"block_size_k\": 5,\n";
  (* deterministic evaluation results (Figure 6 + extended workloads):
     transition counts are machine-independent, unlike the timings below *)
  let evaluations = List.rev !fig6_reports @ List.rev !extended_reports in
  p "  \"evaluations\": [\n";
  let nev = List.length evaluations in
  List.iteri
    (fun i (name, (r : Pipeline.Evaluate.report)) ->
      p "    {\"name\": \"%s\", \"instructions\": %d, " name
        r.Pipeline.Evaluate.instructions;
      p "\"baseline_transitions\": %d, \"businvert_transitions\": %d, "
        r.Pipeline.Evaluate.baseline_transitions
        r.Pipeline.Evaluate.businvert_transitions;
      p "\"coverage_pct\": %.4f, \"runs\": [" r.Pipeline.Evaluate.coverage_pct;
      List.iteri
        (fun j (run : Pipeline.Evaluate.encoded_run) ->
          p "%s{\"k\": %d, \"transitions\": %d, \"reduction_pct\": %.4f, \"tt_used\": %d, \"blocks_encoded\": %d}"
            (if j > 0 then ", " else "")
            run.Pipeline.Evaluate.k run.Pipeline.Evaluate.transitions
            run.Pipeline.Evaluate.reduction_pct run.Pipeline.Evaluate.tt_used
            run.Pipeline.Evaluate.blocks_encoded)
        r.Pipeline.Evaluate.runs;
      p "]}%s\n" (if i = nev - 1 then "" else ","))
    evaluations;
  p "  ],\n";
  (* per-bitline / per-block attribution, exact by construction (sums are
     pinned to the aggregate transition counts by test/test_trace.ml) *)
  let attributions =
    List.filter_map
      (fun (name, (r : Pipeline.Evaluate.report)) ->
        Option.map
          (fun s -> Trace.Attribution.to_json ~name s)
          r.Pipeline.Evaluate.attribution)
      evaluations
  in
  p "  \"attribution\": [\n";
  let natt = List.length attributions in
  List.iteri
    (fun i json -> p "    %s%s\n" json (if i = natt - 1 then "" else ","))
    attributions;
  p "  ],\n";
  (* itemized energy ledgers (schema /4): integer event counts priced under
     the on-chip model; conservation against the evaluations section is
     machine-checked by Pipeline.Evaluate and test/test_ledger.ml *)
  let ledgers =
    List.filter_map
      (fun (_, (r : Pipeline.Evaluate.report)) ->
        Option.map Ledger.Sheet.to_json r.Pipeline.Evaluate.ledger)
      evaluations
  in
  p "  \"ledger\": [\n";
  let nled = List.length ledgers in
  List.iteri
    (fun i json -> p "    %s%s\n" json (if i = nled - 1 then "" else ","))
    ledgers;
  p "  ],\n";
  (* schema /6: per-region encoder-backend selection under [`Auto] — a
     pure function of the program and the energy model, so every leaf is
     diffed exactly by the gate *)
  p "  \"schemes\": [\n";
  List.iteri
    (fun i (name, (r : Pipeline.Evaluate.report)) ->
      p "    {\"name\": \"%s\", \"runs\": [" name;
      List.iteri
        (fun j (s : Pipeline.Evaluate.scheme_run) ->
          p "%s{\"k\": %d, \"transitions\": %d, \"reduction_pct\": %.4f, "
            (if j > 0 then ", " else "")
            s.Pipeline.Evaluate.srun_k s.Pipeline.Evaluate.auto_transitions
            s.Pipeline.Evaluate.auto_reduction_pct;
          p "\"energy_j\": %.6e, \"tt_energy_j\": %.6e, \"reverted\": %b, \
             \"regions\": {"
            s.Pipeline.Evaluate.auto_energy_j s.Pipeline.Evaluate.tt_energy_j
            s.Pipeline.Evaluate.reverted;
          List.iteri
            (fun m (scheme, n) ->
              p "%s\"%s\": %d" (if m > 0 then ", " else "") scheme n)
            s.Pipeline.Evaluate.scheme_counts;
          p "}}")
        r.Pipeline.Evaluate.schemes;
      p "]}%s\n" (if i = nev - 1 then "" else ","))
    evaluations;
  p "  ],\n";
  (match !chain256_measurement with
  | Some (new_ns, old_ns) ->
      p "  \"chain_encode_256\": {\n";
      p "    \"builder_ns\": %.1f,\n" new_ns;
      p "    \"seed_style_ns\": %.1f,\n" old_ns;
      p "    \"speedup\": %.2f\n" (old_ns /. new_ns);
      p "  },\n"
  | None -> ());
  (* domains sweep: requested/actual widths are exact (the clamp depends
     only on the pool cap), the rates are wall-clock and therefore banded *)
  p "  \"throughput\": [\n";
  let nlegs = List.length !throughput_legs in
  List.iteri
    (fun i l ->
      p "    {\"requested_domains\": %d, \"domains\": %d, \"campaign_injections\": %d, "
        l.requested_domains l.leg_domains l.campaign_injections;
      p "\"campaign_s\": %.4f, \"injections_per_s\": %.1f, " l.campaign_s
        l.injections_per_s;
      p "\"encode_s\": %.4f, \"bits_per_s\": %.1f}%s\n" l.encode_s l.bits_per_s
        (if i = nlegs - 1 then "" else ","))
    !throughput_legs;
  p "  ],\n";
  (* plan cache: hit/miss counts are a pure function of the call sequence
     (diffed exactly); the cold/warm timings are banded *)
  (match !plan_cache_measurement with
  | Some (hits, misses, cold_s, warm_s) ->
      p "  \"plan_cache\": {\n";
      p "    \"hits\": %d,\n" hits;
      p "    \"misses\": %d,\n" misses;
      (* a cache hit is tens of microseconds, so these two need more
         digits than the other wall-clock leaves to stay nonzero *)
      p "    \"cold_s\": %.6f,\n" cold_s;
      p "    \"warm_s\": %.6f,\n" warm_s;
      p "    \"warm_speedup\": %.2f\n" (cold_s /. warm_s);
      p "  },\n"
  | None -> ());
  (match !alloc_measurement with
  | Some (before, after) ->
      p "  \"alloc\": {\n";
      p "    \"block_rows\": %d,\n" alloc_rows;
      p "    \"before_minor_words_per_block\": %.1f,\n" before;
      p "    \"after_minor_words_per_block\": %.1f,\n" after;
      p "    \"reduction_factor\": %.2f\n" (before /. Float.max 1.0 after);
      p "  },\n"
  | None -> ());
  (* schema /7: live-observability figures.  Pool utilization, per-phase GC
     and the sampler exercise are scheduling- and wall-clock-dependent, so
     every numeric leaf here is banded; only the structural constants
     (slots, interval_ms) and the validator verdict are exact.  The
     domains=1 CI leg still records nonzero pool figures because the
     throughput sweep overrides the width per leg, so the band's
     zero-baseline hazard never arises. *)
  (match !observability_measurement with
  | Some samples ->
      let c = Telemetry.Metrics.counter_total in
      let busy = c Telemetry.Registry.parpool_busy_ns in
      let idle = c Telemetry.Registry.parpool_idle_ns in
      let util =
        if busy + idle = 0 then 0.0
        else 100.0 *. float_of_int busy /. float_of_int (busy + idle)
      in
      let exposition =
        Telemetry.Openmetrics.to_string (Telemetry.Metrics.freeze ())
      in
      let valid =
        match Telemetry.Openmetrics.validate exposition with
        | Ok () -> true
        | Error _ -> false
      in
      p "  \"observability\": {\n";
      p "    \"sampler\": {\"interval_ms\": %d, \"samples\": %d},\n"
        sampler_interval_ms samples;
      p "    \"openmetrics\": {\"bytes\": %d, \"valid\": %b},\n"
        (String.length exposition) valid;
      p
        "    \"pool\": {\"slots\": %d, \"width\": %d, \"busy_ns\": %d, \
         \"idle_ns\": %d, \"chunks\": %d, \"utilization_pct\": %.4f},\n"
        Telemetry.Registry.pool_slots
        (Telemetry.Metrics.gauge_value Telemetry.Registry.parpool_width 0)
        busy idle
        (c Telemetry.Registry.parpool_chunks)
        util;
      (* per-phase minor words are precise (Gc.minor_words deltas) and
         machine-independent; major words and collection counts only move
         at GC boundaries, so near-zero phases record them
         nondeterministically — they are summed across phases, where the
         totals are robustly nonzero, to keep the band's denominators
         meaningful *)
      let gc_sum l = List.fold_left (fun acc m -> acc + c m) 0 l in
      p
        "    \"gc\": {\"profile_minor_words\": %d, \"plan_minor_words\": \
         %d, \"count_minor_words\": %d, \"major_words\": %d, \
         \"collections\": %d},\n"
        (c Telemetry.Registry.gc_profile_minor_words)
        (c Telemetry.Registry.gc_plan_minor_words)
        (c Telemetry.Registry.gc_count_minor_words)
        (gc_sum
           [
             Telemetry.Registry.gc_profile_major_words;
             Telemetry.Registry.gc_plan_major_words;
             Telemetry.Registry.gc_count_major_words;
           ])
        (gc_sum
           [
             Telemetry.Registry.gc_profile_minor_collections;
             Telemetry.Registry.gc_profile_major_collections;
             Telemetry.Registry.gc_plan_minor_collections;
             Telemetry.Registry.gc_plan_major_collections;
             Telemetry.Registry.gc_count_minor_collections;
             Telemetry.Registry.gc_count_major_collections;
           ]);
      p "    \"heap\": {\"heap_words\": %d, \"top_heap_words\": %d}\n"
        (Telemetry.Metrics.gauge_value Telemetry.Registry.gc_heap_words 0)
        (Telemetry.Metrics.gauge_value Telemetry.Registry.gc_top_heap_words 0);
      p "  },\n"
  | None -> ());
  (* schema /8: pinned-window event-log counts.  Stable counts, the level
     and per-slug tallies and the run_id verdict are pure functions of the
     window's workload and diff exactly; runtime_events and bytes are
     banded (scheduling / run_id length) *)
  (match !eventlog_result with
  | Some e ->
      p "  \"eventlog\": {\n";
      p "    \"run_id_present\": %b,\n" e.ev_run_id_present;
      p "    \"stable_events\": %d,\n" e.ev_stable;
      p "    \"runtime_events\": %d,\n" e.ev_runtime;
      p "    \"dropped\": %d,\n" e.ev_dropped;
      p "    \"bytes\": %d,\n" e.ev_bytes;
      p "    \"levels\": {";
      List.iteri
        (fun i (name, n) ->
          p "%s\"%s\": %d" (if i > 0 then ", " else "") name n)
        e.ev_levels;
      p "},\n";
      p "    \"events\": {";
      List.iteri
        (fun i (slug, n) ->
          p "%s\"%s\": %d" (if i > 0 then ", " else "") slug n)
        e.ev_slugs;
      p "}\n";
      p "  },\n"
  | None -> ());
  p "  \"workloads\": [\n";
  List.iteri
    (fun i t ->
      p "    {\"name\": \"%s\", \"static_insns\": %d, \"dynamic_insns\": %d, "
        t.wname t.static_insns t.dynamic_insns;
      p "\"encode_ns_per_insn\": %.2f, \"decode_ns_per_insn\": %.2f, "
        t.encode_ns_per_insn t.decode_ns_per_insn;
      p "\"evaluate_ns_per_insn\": %.2f}%s\n" t.evaluate_ns_per_insn
        (if i = List.length timings - 1 then "" else ",");
      ignore i)
    timings;
  p "  ],\n";
  (* the whole run's metrics: counters, tau/block-size histograms, pool and
     GC gauges, span tree — annotated with per-metric doc and stability so
     the file is self-describing (schema: Telemetry.Registry; documented in
     EXPERIMENTS.md).  The gate ignores this section wholesale. *)
  p "  \"telemetry\": %s\n"
    (Telemetry.Report.to_json_annotated (Telemetry.Metrics.freeze ()));
  p "}\n";
  close_out oc;
  Format.printf "Wrote %s@." (Filename.concat (Sys.getcwd ()) "BENCH_encoding.json")

(* ---- run history: one JSON line per harness run ----------------------------- *)

let run_start = Unix.gettimeofday ()

(* Append-only trend log next to the committed baseline ($POWERCODE_HISTORY
   overrides; falls back to ./history.jsonl when no bench/ directory is in
   sight, e.g. under the cram sandbox).  bench/compare.exe summarises the
   trend once the file holds two or more entries. *)
let history_path () =
  match Sys.getenv_opt "POWERCODE_HISTORY" with
  | Some p -> p
  | None ->
      if Sys.file_exists "bench" && Sys.is_directory "bench" then
        "bench/history.jsonl"
      else "history.jsonl"

let append_history () =
  let fast = Sys.getenv_opt "POWERCODE_FAST" = Some "1" in
  let evaluations = List.rev !fig6_reports @ List.rev !extended_reports in
  let mean f =
    let xs = List.filter_map f evaluations in
    if xs = [] then 0.0
    else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let k4_reduction (_, (r : Pipeline.Evaluate.report)) =
    match r.Pipeline.Evaluate.runs with
    | run :: _ -> Some run.Pipeline.Evaluate.reduction_pct
    | [] -> None
  in
  let k4_net (_, (r : Pipeline.Evaluate.report)) =
    match r.Pipeline.Evaluate.ledger with
    | Some sheet -> (
        match sheet.Ledger.Sheet.entries with
        | e :: _ -> Some (Ledger.Sheet.net_savings_pct sheet e)
        | [] -> None)
    | None -> None
  in
  let path = history_path () in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  let leg_rate requested =
    match
      List.find_opt (fun l -> l.requested_domains = requested) !throughput_legs
    with
    | Some l -> (l.injections_per_s, l.bits_per_s)
    | None -> (0.0, 0.0)
  in
  let inj1, bits1 = leg_rate 1 in
  let injmax, bitsmax = leg_rate Powercode.Parpool.max_workers in
  let warm_speedup =
    match !plan_cache_measurement with
    | Some (_, _, cold_s, warm_s) -> cold_s /. warm_s
    | None -> 0.0
  in
  Printf.fprintf oc
    "{\"schema\": \"powercode-bench-encoding/8\", \"mode\": \"%s\", \
     \"powercode_seq\": %b, \"domains\": %d, \"wall_s\": %.2f, \"benches\": \
     %d, \"mean_reduction_k4_pct\": %.4f, \"mean_net_savings_k4_pct\": \
     %.4f, \"inj_per_s_d1\": %.1f, \"inj_per_s_dmax\": %.1f, \
     \"bits_per_s_d1\": %.1f, \"bits_per_s_dmax\": %.1f, \
     \"plan_warm_speedup\": %.2f}\n"
    (if fast then "fast" else "full")
    (Powercode.Parpool.sequential_mode ())
    (Powercode.Parpool.worker_count () + 1)
    (Unix.gettimeofday () -. run_start)
    (List.length evaluations)
    (mean k4_reduction) (mean k4_net) inj1 injmax bits1 bitsmax warm_speedup;
  close_out oc;
  Format.printf "Appended run record to %s@." path

(* ---- main ------------------------------------------------------------------------------ *)

let () =
  Format.printf
    "Power Efficiency through Application-Specific Instruction Memory \
     Transformations@.(DATE 2003) -- reproduction harness@.";
  Telemetry.Metrics.set_enabled true;
  Telemetry.Log.set_enabled true;
  fig2 ();
  fig3 ();
  fig4 ();
  sec52 ();
  sec6 ();
  fig6 ();
  fig7 ();
  businvert_baseline ();
  hw_cost ();
  ablation_chain ();
  ablation_subset ();
  ablation_tt_capacity ();
  ablation_compiler ();
  ablation_bb_boundaries ();
  per_line_analysis ();
  multihistory ();
  storage_invariance ();
  address_bus ();
  extended_workloads ();
  energy_ledger ();
  scheme_table ();
  bechamel_suite ();
  throughput_sweep ();
  plan_cache_sweep ();
  alloc_accounting ();
  observability_sweep ();
  eventlog_sweep ();
  telemetry_report ();
  bench_encoding_json ();
  append_history ();
  Format.printf "@.Done.@."
