module Block = Cfg.Block
module Dominator = Cfg.Dominator
module Loop = Cfg.Loop
module Profile = Cfg.Profile
module Asm = Isa.Asm
module Program = Isa.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let straight_line = "nop\nnop\nnop\nli $v0, 10\nsyscall"

let diamond =
  {|
    li $t0, 1
    beq $t0, $zero, left
    nop
    j join
  left:
    nop
  join:
    li $v0, 10
    syscall
  |}

let simple_loop =
  {|
    li $t0, 5
  head:
    addiu $t0, $t0, -1
    bgtz $t0, head
    li $v0, 10
    syscall
  |}

let nested_loops =
  {|
    li $t0, 3
  outer:
    li $t1, 3
  inner:
    addiu $t1, $t1, -1
    bgtz $t1, inner
    addiu $t0, $t0, -1
    bgtz $t0, outer
    li $v0, 10
    syscall
  |}

let blocks_of src = Block.partition (Program.insns (Asm.assemble src))

let test_straight_line () =
  let blocks = blocks_of straight_line in
  check_int "one block" 1 (Array.length blocks);
  check_int "len" 5 blocks.(0).Block.len;
  check_bool "exit terminator" true (blocks.(0).Block.terminator = Block.Exit)

let test_diamond_structure () =
  let blocks = blocks_of diamond in
  check_int "four blocks" 4 (Array.length blocks);
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] blocks.(0).Block.succs;
  Alcotest.(check (list int)) "left preds" [ 0 ] blocks.(2).Block.preds;
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] blocks.(3).Block.preds

let test_blocks_tile_program () =
  List.iter
    (fun src ->
      let p = Asm.assemble src in
      let blocks = blocks_of src in
      let covered = Array.make (Program.length p) 0 in
      Array.iter
        (fun b ->
          for i = b.Block.start to b.Block.start + b.Block.len - 1 do
            covered.(i) <- covered.(i) + 1
          done)
        blocks;
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "insn %d covered %d times" i c)
        covered)
    [ straight_line; diamond; simple_loop; nested_loops ]

let test_block_at () =
  let blocks = blocks_of diamond in
  check_int "insn 0 in block 0" 0 (Block.block_at blocks 0).Block.index;
  check_int "last insn in last block" 3
    (Block.block_at blocks 6).Block.index

let test_no_branch_into_middle () =
  (* by construction every branch target is a block start *)
  List.iter
    (fun src ->
      let p = Asm.assemble src in
      let insns = Program.insns p in
      let blocks = blocks_of src in
      let starts = Array.to_list (Array.map (fun b -> b.Block.start) blocks) in
      Array.iteri
        (fun i insn ->
          let target =
            match Isa.Insn.branch_offset insn with
            | Some off -> Some (i + 1 + off)
            | None -> Isa.Insn.jump_target insn
          in
          match target with
          | Some t when not (List.mem t starts) ->
              Alcotest.failf "branch at %d targets mid-block %d" i t
          | Some _ | None -> ())
        insns)
    [ diamond; simple_loop; nested_loops ]

(* ---- dominators ------------------------------------------------------------ *)

let test_dominators_diamond () =
  let blocks = blocks_of diamond in
  let doms = Dominator.compute blocks in
  check_bool "entry dominates all" true
    (List.for_all
       (fun b -> Dominator.dominates doms ~dom:0 ~sub:b)
       [ 0; 1; 2; 3 ]);
  check_bool "left does not dominate join" false
    (Dominator.dominates doms ~dom:2 ~sub:3);
  Alcotest.(check (option int)) "idom of join" (Some 0)
    (Dominator.immediate doms 3);
  Alcotest.(check (option int)) "idom of entry" None (Dominator.immediate doms 0)

let test_dominators_self () =
  let blocks = blocks_of simple_loop in
  let doms = Dominator.compute blocks in
  Array.iter
    (fun b ->
      check_bool "self-domination" true
        (Dominator.dominates doms ~dom:b.Block.index ~sub:b.Block.index))
    blocks

let test_unreachable () =
  (* the block after an unconditional jump that nothing targets *)
  let src = {|
      j out
      nop
    out:
      li $v0, 10
      syscall
    |} in
  let blocks = blocks_of src in
  let doms = Dominator.compute blocks in
  check_bool "entry reachable" true (Dominator.reachable doms 0);
  let unreachable =
    Array.to_list blocks
    |> List.filter (fun b -> not (Dominator.reachable doms b.Block.index))
  in
  check_int "one unreachable block" 1 (List.length unreachable)

(* ---- loops ------------------------------------------------------------------ *)

let test_simple_loop_detected () =
  let blocks = blocks_of simple_loop in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check_int "header is block 1" 1 l.Loop.header;
  check_int "depth" 1 l.Loop.depth

let test_nested_loops_detected () =
  let blocks = blocks_of nested_loops in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  check_int "two loops" 2 (List.length loops);
  let inner =
    List.find (fun (l : Loop.t) -> l.Loop.depth = 2) loops
  in
  let outer = List.find (fun (l : Loop.t) -> l.Loop.depth = 1) loops in
  check_bool "inner inside outer" true
    (List.for_all (fun b -> Loop.contains outer b) inner.Loop.body)

let test_innermost () =
  let blocks = blocks_of nested_loops in
  let doms = Dominator.compute blocks in
  let loops = Loop.detect blocks doms in
  let inner = List.find (fun (l : Loop.t) -> l.Loop.depth = 2) loops in
  match Loop.innermost loops inner.Loop.header with
  | Some l -> check_int "innermost depth" 2 l.Loop.depth
  | None -> Alcotest.fail "expected a loop"

let test_no_loops_in_straight_line () =
  let blocks = blocks_of straight_line in
  let doms = Dominator.compute blocks in
  check_int "no loops" 0 (List.length (Loop.detect blocks doms))

(* ---- profile ----------------------------------------------------------------- *)

let test_profile_counts () =
  let p = Asm.assemble simple_loop in
  let profile, result = Profile.collect p in
  check_int "total = dynamic instructions" result.Machine.Cpu.instructions
    (Profile.total profile);
  (* loop body (block 1, two instructions) executes 5 times *)
  let blocks = Block.partition (Program.insns p) in
  check_int "loop weight" 5 (Profile.block_weight profile blocks.(1));
  check_int "loop fetches" 10 (Profile.block_fetches profile blocks.(1))

let test_hot_blocks_order () =
  let p = Asm.assemble nested_loops in
  let profile, _ = Profile.collect p in
  let blocks = Block.partition (Program.insns p) in
  match Profile.hot_blocks profile blocks with
  | hottest :: _ ->
      (* the inner loop body must be the hottest block *)
      let inner_weight = Profile.block_fetches profile hottest in
      Array.iter
        (fun b ->
          check_bool "hottest first" true
            (Profile.block_fetches profile b <= inner_weight))
        blocks
  | [] -> Alcotest.fail "no hot blocks"

let test_coverage () =
  let p = Asm.assemble simple_loop in
  let profile, _ = Profile.collect p in
  let blocks = Block.partition (Program.insns p) in
  let all = Array.to_list blocks in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Profile.coverage profile all);
  Alcotest.(check (float 1e-9)) "empty coverage" 0.0 (Profile.coverage profile [])

(* ---- fetch edges and bus-invert, against the recorded fetch stream ------------- *)

(* A self-loop, then a jump to pc + 1: [jalr $t0, $t0] at pc 1 first jumps
   to itself ($t0 = 1) and then to pc 2 ($t0 = 2). *)
let self_loop = "li $t0, 1\njalr $t0, $t0\nli $v0, 10\nsyscall"

(* A taken branch to pc + 1 looks exactly like falling through. *)
let branch_to_next = "beq $zero, $zero, next\nnext:\nli $v0, 10\nsyscall"

(* The exit syscall also prints on earlier passes, so the last pc is
   fetched three times but falls through only twice. *)
let last_pc_repeats =
  {|
    li $t0, 3
  loop:
    addiu $t0, $t0, -1
    li $v0, 1
    bgtz $t0, print
    li $v0, 10
  print:
    move $a0, $t0
    syscall
    j loop
  |}

(* The segment [join .. bgtz] is left for [back] twice, entered once after
   the [j] and once after the [beq]: two bus-invert histories for one
   stretch of words, which must be priced apart (they cost 19 and 18).
   The unexecuted [nop] keeps [join] from being the [beq]'s pc + 1. *)
let two_entries =
  {|
    li $t0, 3
    j join
  back:
    nop
    beq $zero, $zero, join
    nop
  join:
    addiu $t0, $t0, -1
    bgtz $t0, back
    li $v0, 10
    syscall
  |}

(* The shortest run the CPU can finish: $v0 starts at 0, so exiting takes
   two fetches. *)
let shortest = "li $v0, 10\nsyscall"

let stream_of p =
  let pcs = ref [] in
  let state = Machine.Cpu.create_state () in
  ignore (Machine.Cpu.run ~on_fetch:(fun ~pc -> pcs := pc :: !pcs) p state);
  (List.rev !pcs, Machine.Cpu.output state)

(* The profile's edges, bus-invert figure, counts and output equal what the
   recorded stream gives fetch by fetch. *)
let check_against_stream name src =
  let p = Asm.assemble src in
  let profile, result = Profile.collect p in
  let pcs, output = stream_of p in
  let pairs = Hashtbl.create 16 in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        Hashtbl.replace pairs (a, b)
          (1 + Option.value ~default:0 (Hashtbl.find_opt pairs (a, b)));
        walk rest
    | _ -> ()
  in
  walk pcs;
  let expected =
    List.sort compare
      (Hashtbl.fold (fun (a, b) n acc -> (a, b, n) :: acc) pairs [])
  in
  let got =
    Array.to_list
      (Array.map (fun (e : Profile.edge) -> (e.src, e.dst, e.count)) (Profile.edges profile))
  in
  Alcotest.(check (list (triple int int int))) (name ^ ": edges") expected got;
  check_int (name ^ ": total") (List.length pcs) (Profile.total profile);
  check_int (name ^ ": result") (List.length pcs) result.Machine.Cpu.instructions;
  let words = Program.words p in
  check_int (name ^ ": businvert")
    (Buspower.Businvert.count_stream
       (Array.of_list (List.map (fun pc -> words.(pc)) pcs)))
    (Profile.businvert_transitions profile);
  Alcotest.(check string) (name ^ ": output") output (Profile.output profile);
  Array.iteri
    (fun pc _ ->
      check_int
        (Printf.sprintf "%s: count %d" name pc)
        (List.length (List.filter (( = ) pc) pcs))
        (Profile.instruction_count profile pc))
    words;
  profile

let edge_list profile =
  Array.to_list
    (Array.map (fun (e : Profile.edge) -> (e.src, e.dst, e.count)) (Profile.edges profile))

let test_self_loop () =
  let profile = check_against_stream "self loop" self_loop in
  Alcotest.(check (list (triple int int int)))
    "a -> a, then a -> a + 1" [ (0, 1, 1); (1, 1, 1); (1, 2, 1); (2, 3, 1) ]
    (edge_list profile)

let test_branch_to_next () =
  let profile = check_against_stream "branch to pc + 1" branch_to_next in
  Alcotest.(check (list (triple int int int)))
    "one sequential edge per pc" [ (0, 1, 1); (1, 2, 1) ] (edge_list profile)

let test_last_pc () =
  let profile = check_against_stream "last pc" last_pc_repeats in
  let syscall = 6 in
  check_int "syscall fetched three times" 3
    (Profile.instruction_count profile syscall);
  check_int "falls through twice" 2
    (List.fold_left
       (fun acc (a, _, n) -> if a = syscall then acc + n else acc)
       0 (edge_list profile));
  check_int "edges cover every fetch but the first"
    (Profile.total profile - 1)
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 (edge_list profile))

let test_shortest_run () =
  let profile = check_against_stream "shortest run" shortest in
  Alcotest.(check (list (triple int int int)))
    "one edge" [ (0, 1, 1) ] (edge_list profile)

let test_nested_against_stream () =
  ignore (check_against_stream "nested loops" nested_loops);
  ignore (check_against_stream "diamond" diamond);
  ignore (check_against_stream "straight line" straight_line);
  ignore (check_against_stream "two entry histories" two_entries)

(* A budget the run exceeds raises, as Machine.Cpu.run does; a budget of
   exactly the run's length does not. *)
let test_budget () =
  let p = Asm.assemble last_pc_repeats in
  let full, _ = Profile.collect p in
  let n = Profile.total full in
  let exact, _ = Profile.collect ~max_instructions:n p in
  Alcotest.(check (list (triple int int int)))
    "exact budget, same edges" (edge_list full) (edge_list exact);
  List.iter
    (fun budget ->
      Alcotest.check_raises
        (Printf.sprintf "budget %d" budget)
        (Machine.Cpu.Trap "instruction budget exceeded")
        (fun () -> ignore (Profile.collect ~max_instructions:budget p)))
    [ 1; n - 1 ]

let () =
  Alcotest.run "cfg"
    [
      ( "blocks",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line;
          Alcotest.test_case "diamond" `Quick test_diamond_structure;
          Alcotest.test_case "tiling" `Quick test_blocks_tile_program;
          Alcotest.test_case "block_at" `Quick test_block_at;
          Alcotest.test_case "targets are leaders" `Quick
            test_no_branch_into_middle;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "self" `Quick test_dominators_self;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
        ] );
      ( "loops",
        [
          Alcotest.test_case "simple" `Quick test_simple_loop_detected;
          Alcotest.test_case "nested" `Quick test_nested_loops_detected;
          Alcotest.test_case "innermost" `Quick test_innermost;
          Alcotest.test_case "none" `Quick test_no_loops_in_straight_line;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "hot order" `Quick test_hot_blocks_order;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "self loop" `Quick test_self_loop;
          Alcotest.test_case "branch to pc + 1" `Quick test_branch_to_next;
          Alcotest.test_case "last pc" `Quick test_last_pc;
          Alcotest.test_case "shortest run" `Quick test_shortest_run;
          Alcotest.test_case "loops against the stream" `Quick
            test_nested_against_stream;
          Alcotest.test_case "instruction budget" `Quick test_budget;
        ] );
    ]
