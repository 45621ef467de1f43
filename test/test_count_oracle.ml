(* The exact oracle for Pipeline.Evaluate's counting.  Evaluate prices
   every image from the profile's fetch-edge counts; this file keeps the
   per-fetch counting loop it replaced, as test-only code, and requires
   every counted report field to equal it: the baseline and each image's
   transitions, bus-invert, coverage, the ledger meter, the attribution
   tables, and the mixed bus of a scheme selection.  It runs on the six
   scaled and three extended kernels at k = 4..7, under tt, auto and each
   fixed fetch-path scheme, with the ledger and attribution on, from a cold
   plan cache and again from a warm one. *)

module E = Pipeline.Evaluate

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (array int))
let popcount = Bitutil.Popcount.count32
let ks = [ 4; 5; 6; 7 ]
let model = Ledger.Model.on_chip

let fetch_path_schemes = [ "identity"; "businvert"; "t0"; "gray"; "lowweight" ]

let backend name =
  Buspower.Backends.ensure ();
  List.find
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      String.equal B.scheme name)
    (Buspower.Encoder.all ())

(* One image under test: its stored words and the [(start, len)] extents
   of its encoded regions, from the plan's placements. *)
type image = { k : int; words : int array; regions : (int * int) array }

let image_of_prepared (p : E.prepared) =
  {
    k = p.prep_k;
    words = p.prep_system.Hardware.Reprogram.image;
    regions =
      Array.of_list
        (List.filter_map
           (fun (pl : Powercode.Program_encoder.placement) ->
             Option.map
               (fun (e : Powercode.Program_encoder.block_encoding) ->
                 (pl.cand.start_index, Bitutil.Bitmat.rows e.encoded))
               pl.encoding)
           p.prep_plan.placements);
  }

(* One image's mixed bus under one selection (per region, a backend name
   or "tt"): its transitions and who served the fetches. *)
type mixed = {
  m_transitions : int;
  m_tt_fetches : int;
  m_alt_fetches : int array;  (* per region; 0 where the region is tt *)
}

type oracle = {
  instructions : int;
  output : string;
  baseline : int;
  totals : int array;
  businvert : int;
  counts : int array;  (* per pc *)
  branches : int;
  tt_reads : int array;
  gate_toggles : int array;
  line_baseline : int array;
  line_encoded : int array array;
  block_baseline : int array;
  block_encoded : int array array;
  mixed : mixed array list;  (* per selection, per image *)
}

(* One CPU run, every figure accumulated fetch by fetch. *)
let run program ~blocks images ~selections =
  let words = Isa.Program.words program in
  let npc = Array.length words in
  let nimg = Array.length images in
  let region_of_pc =
    Array.map
      (fun im ->
        let m = Array.make npc (-1) in
        Array.iteri
          (fun ri (start, len) ->
            for pc = start to min (npc - 1) (start + len - 1) do
              m.(pc) <- ri
            done)
          im.regions;
        m)
      images
  in
  let pc_block = Array.make npc (-1) in
  Array.iteri
    (fun bi (b : Cfg.Block.t) ->
      for pc = b.start to b.start + b.len - 1 do
        pc_block.(pc) <- bi
      done)
    blocks;
  let nb = Array.length blocks in
  let counts = Array.make npc 0 in
  let bi = Buspower.Businvert.create () in
  let baseline = ref 0 and totals = Array.make nimg 0 in
  let branches = ref 0 in
  let tt_reads = Array.make nimg 0 and gate_toggles = Array.make nimg 0 in
  let line_baseline = Array.make 32 0 in
  let line_encoded = Array.init nimg (fun _ -> Array.make 32 0) in
  let block_baseline = Array.make nb 0 in
  let block_encoded = Array.init nimg (fun _ -> Array.make nb 0) in
  let attribute lines blocks blk d =
    for bit = 0 to 31 do
      if (d lsr bit) land 1 = 1 then lines.(bit) <- lines.(bit) + 1
    done;
    if blk >= 0 then blocks.(blk) <- blocks.(blk) + popcount d
  in
  (* per selection and image: an encoder per non-tt region, the previous
     data and aux lines, and the tallies *)
  let sels =
    List.map
      (fun sel ->
        Array.mapi
          (fun v names ->
            ( Array.map
                (fun name ->
                  if String.equal name "tt" then None
                  else
                    let module B = (val backend name : Buspower.Encoder.S) in
                    let e = B.encoder ~width:32 in
                    Some
                      (fun w ->
                        match B.encode e w with
                        | [ cw ] -> cw
                        | _ -> Alcotest.fail "latency-0 backend buffered"))
                names,
              Array.make 4 0,
              Array.make (Array.length images.(v).regions) 0 ))
          sel)
      selections
  in
  let first = ref true and prev_pc = ref 0 and prev_base = ref 0 in
  let prevs = Array.make nimg 0 in
  let on_fetch ~pc =
    let w = words.(pc) in
    counts.(pc) <- counts.(pc) + 1;
    ignore (Buspower.Businvert.encode bi w);
    if !first || pc <> !prev_pc + 1 then incr branches;
    let base_flips = if !first then 0 else popcount (w lxor !prev_base) in
    baseline := !baseline + base_flips;
    if not !first then
      attribute line_baseline block_baseline pc_block.(pc) (w lxor !prev_base);
    Array.iteri
      (fun v im ->
        let e = im.words.(pc) in
        if not !first then begin
          totals.(v) <- totals.(v) + popcount (e lxor prevs.(v));
          attribute line_encoded.(v) block_encoded.(v) pc_block.(pc)
            (e lxor prevs.(v))
        end;
        prevs.(v) <- e;
        if region_of_pc.(v).(pc) >= 0 then begin
          tt_reads.(v) <- tt_reads.(v) + 1;
          gate_toggles.(v) <- gate_toggles.(v) + base_flips
        end)
      images;
    List.iter
      (Array.iteri (fun v (steps, st, alt_fetches) ->
           (* st: transitions, tt fetches, previous data, previous aux *)
           let r = region_of_pc.(v).(pc) in
           let data, aux =
             match if r >= 0 then steps.(r) else None with
             | Some step ->
                 alt_fetches.(r) <- alt_fetches.(r) + 1;
                 let cw = step w in
                 (cw.Buspower.Encoder.data, cw.Buspower.Encoder.aux)
             | None ->
                 if r >= 0 then st.(1) <- st.(1) + 1;
                 (images.(v).words.(pc), st.(3))
           in
           if not !first then
             st.(0) <- st.(0) + popcount (data lxor st.(2)) + popcount (aux lxor st.(3));
           st.(2) <- data;
           st.(3) <- aux))
      sels;
    prev_base := w;
    prev_pc := pc;
    first := false
  in
  let state = Machine.Cpu.create_state () in
  let result = Machine.Cpu.run ~on_fetch program state in
  {
    instructions = result.Machine.Cpu.instructions;
    output = Machine.Cpu.output state;
    baseline = !baseline;
    totals;
    businvert = Buspower.Businvert.transitions bi;
    counts;
    branches = !branches;
    tt_reads;
    gate_toggles;
    line_baseline;
    line_encoded;
    block_baseline;
    block_encoded;
    mixed =
      List.map
        (Array.map (fun (_, st, alt_fetches) ->
             { m_transitions = st.(0); m_tt_fetches = st.(1); m_alt_fetches = alt_fetches }))
        sels;
  }

let reduction ~baseline t =
  if baseline = 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int t /. float_of_int baseline))

(* Every counted field of [r] against the oracle.  [selection] pairs the
   per-image region choices with the oracle's mixed bus for them ([None]
   under tt, which has no scheme runs). *)
let check_report ~label (o : oracle) ~blocks images ~systems ~selection
    ~scheme (r : E.report) =
  let c name = Printf.sprintf "%s: %s" label name in
  check_int (c "instructions") o.instructions r.instructions;
  Alcotest.(check string) (c "output") o.output r.output;
  check_int (c "baseline") o.baseline r.baseline_transitions;
  check_int (c "businvert") o.businvert r.businvert_transitions;
  let fetches_in (b : Cfg.Block.t) =
    let n = ref 0 in
    for pc = b.start to b.start + b.len - 1 do
      n := !n + o.counts.(pc)
    done;
    !n
  in
  let covered =
    Array.fold_left
      (fun acc (b : Cfg.Block.t) ->
        if Array.exists (fun (s, _) -> s = b.start) images.(0).regions then
          acc + fetches_in b
        else acc)
      0 blocks
  in
  Alcotest.(check (float 0.0)) (c "coverage")
    (100.0 *. (float_of_int covered /. float_of_int o.instructions))
    r.coverage_pct;
  List.iteri
    (fun v (run : E.encoded_run) ->
      check_int (c (Printf.sprintf "k=%d transitions" run.k)) o.totals.(v)
        run.transitions;
      Alcotest.(check (float 0.0)) (c "reduction")
        (reduction ~baseline:o.baseline o.totals.(v)) run.reduction_pct;
      check_int (c "blocks encoded") (Array.length images.(v).regions)
        run.blocks_encoded;
      check_int (c "not verified") 0 run.verified_fetches)
    r.runs;
  (match r.ledger with
  | None -> Alcotest.fail (c "no ledger")
  | Some sheet ->
      check_int (c "ledger fetches") o.instructions sheet.fetches;
      check_int (c "ledger baseline") o.baseline sheet.baseline_bus.count;
      List.iteri
        (fun v (e : Ledger.Sheet.entry) ->
          let c name = c (Printf.sprintf "ledger k=%d %s" e.k name) in
          check_int (c "bus") o.totals.(v) e.encoded_bus.count;
          check_int (c "tt reads") o.tt_reads.(v) e.tt_reads.count;
          check_int (c "bbit probes") o.branches e.bbit_probes.count;
          check_int (c "gate toggles") o.gate_toggles.(v) e.gate_toggles.count;
          check_int (c "writes")
            (Hardware.Reprogram.programming_writes systems.(v))
            e.reprogram_writes.count)
        sheet.entries);
  (match r.attribution with
  | None -> Alcotest.fail (c "no attribution")
  | Some a ->
      check_int (c "attribution fetches") o.instructions a.fetches;
      check_ints (c "per-line baseline") o.line_baseline a.line_baseline;
      check_ints (c "per-block baseline") o.block_baseline a.block_baseline;
      check_int (c "attribution total") o.baseline a.total_baseline;
      Array.iteri
        (fun v lines ->
          check_ints (c "per-line image") lines a.line_encoded.(v);
          check_ints (c "per-block image") o.block_encoded.(v) a.block_encoded.(v);
          check_int (c "image total") o.totals.(v) a.total_encoded.(v))
        o.line_encoded);
  match selection with
  | None -> check_int (c "no scheme runs") 0 (List.length r.schemes)
  | Some (sel, mixed) ->
      let fl = float_of_int in
      let per_t = Buspower.Energy.per_transition model.bus in
      List.iteri
        (fun v (s : E.scheme_run) ->
          let c name = c (Printf.sprintf "scheme k=%d %s" s.srun_k name) in
          let m = mixed.(v) in
          Alcotest.(check (list string)) (c "choices") (Array.to_list sel.(v))
            (List.map (fun (ch : E.region_choice) -> ch.rc_scheme) s.choices);
          let alt_read_j = ref 0.0 in
          Array.iteri
            (fun ri name ->
              if not (String.equal name "tt") then begin
                let module B = (val backend name : Buspower.Encoder.S) in
                let cost = B.cost ~width:32 in
                alt_read_j :=
                  !alt_read_j
                  +. (fl (m.m_alt_fetches.(ri) * cost.reads_per_fetch) *. model.tt_read_j)
                  +. (fl ((cost.table_bits + 31) / 32) *. model.table_write_j)
              end)
            sel.(v);
          let tt_energy_j =
            (fl o.totals.(v) *. per_t) +. (fl o.tt_reads.(v) *. model.tt_read_j)
          in
          let auto_energy_j =
            (fl m.m_transitions *. per_t)
            +. (fl m.m_tt_fetches *. model.tt_read_j)
            +. !alt_read_j
          in
          let reverted =
            (match scheme with `Auto -> true | _ -> false)
            && auto_energy_j > tt_energy_j
          in
          Alcotest.(check bool) (c "reverted") reverted s.reverted;
          check_int (c "transitions") m.m_transitions s.auto_transitions;
          Alcotest.(check (float 0.0)) (c "reduction")
            (reduction ~baseline:o.baseline m.m_transitions) s.auto_reduction_pct;
          Alcotest.(check (float 0.0)) (c "tt energy") tt_energy_j s.tt_energy_j;
          Alcotest.(check (float 0.0)) (c "energy") auto_energy_j s.auto_energy_j;
          let tally name =
            Array.fold_left (fun n x -> if String.equal x name then n + 1 else n) 0 sel.(v)
          in
          Alcotest.(check (list (pair string int))) (c "counts")
            (("tt", tally "tt")
            :: List.filter_map
                 (fun name -> match tally name with 0 -> None | n -> Some (name, n))
                 fetch_path_schemes)
            s.scheme_counts)
        r.schemes

let schemes : E.scheme list =
  `Tt :: `Auto :: List.map (fun s -> `Fixed s) fetch_path_schemes

let scheme_label = function
  | `Tt -> "tt"
  | `Auto -> "auto"
  | `Fixed s -> s

let test_kernel (w : Workloads.t) () =
  let program = (Workloads.compile w).Minic.Compile.program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  E.Plan_cache.clear ();
  let prepared = E.prepare ~ks program in
  let images = Array.of_list (List.map image_of_prepared prepared) in
  let systems =
    Array.of_list (List.map (fun (p : E.prepared) -> p.prep_system) prepared)
  in
  (* cold, then warm: both reports must agree before the oracle sees them *)
  let reports =
    List.map
      (fun scheme ->
        E.Plan_cache.clear ();
        let eval () =
          E.evaluate ~ks ~scheme ~attribution:true ~ledger:model ~name:w.name
            program
        in
        let cold = eval () in
        let warm = eval () in
        Alcotest.(check (pair int int))
          (scheme_label scheme ^ ": warm evaluate hit the cache")
          (1, 1) (E.Plan_cache.stats ());
        Alcotest.(check bool)
          (scheme_label scheme ^ ": warm report = cold report")
          true (cold = warm);
        (scheme, cold))
      schemes
  in
  (* the selection each scheme run reports: forced schemes take every
     region; auto's own choices are what the mixed bus must price *)
  let selection_of (scheme, (r : E.report)) =
    match scheme with
    | `Tt -> None
    | `Fixed name -> Some (Array.map (fun im -> Array.map (fun _ -> name) im.regions) images)
    | `Auto ->
        Some
          (Array.of_list
             (List.map
                (fun (s : E.scheme_run) ->
                  Array.of_list
                    (List.map (fun (ch : E.region_choice) -> ch.rc_scheme) s.choices))
                r.schemes))
  in
  let selections = List.map selection_of reports in
  let o = run program ~blocks images ~selections:(List.filter_map Fun.id selections) in
  let mixed = ref o.mixed in
  List.iter2
    (fun (scheme, r) sel ->
      let selection =
        Option.map
          (fun sel ->
            match !mixed with
            | m :: rest ->
                mixed := rest;
                (sel, m)
            | [] -> assert false)
          sel
      in
      check_report
        ~label:(w.name ^ " " ^ scheme_label scheme)
        o ~blocks images ~systems ~selection ~scheme r)
    reports selections;
  E.Plan_cache.clear ()

let () =
  Alcotest.run "count-oracle"
    [
      ( "edges = fetch stream",
        List.map
          (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (test_kernel w))
          (Workloads.scaled @ Workloads.extended) );
    ]
