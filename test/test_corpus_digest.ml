(* A pinned digest of everything the compiler derives from a fixed
   corpus: the benchmark's generated programs at seeds 1 and 7 plus
   the hand-written examples/cuda sources go through parse, pass 1 and
   pass 2, and the MD5 of every application model, every rendered
   enumerator and every race verdict (or typed refusal) must match the
   recorded value.  Codegen renders bounds in constraint-list order, so
   any change to the polyhedral core's constraint order or to an
   elimination result shows here.  A second case pins the polyhedral
   work ([poly.*] totals) of the same compile.

   On a mismatch, run the test with MEKONG_CORPUS_DUMP=FILE to write
   the hashed text, and diff it against the same dump from a checkout
   that still matches. *)

open Bench_suite
open Mekong

(* Recorded before the polyhedral core moved to flat integer rows. *)
let expected = "fc4f5c01fc066a1ffb08858a182ceede"

let text_of_program buf (p : Corpus.program) =
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  add ("program " ^ p.Corpus.p_name);
  let _, prog = Cuparse.parse_cu ~name:p.Corpus.p_name p.Corpus.p_source in
  match Toolchain.pass1 prog with
  | Error e -> add ("refused: " ^ Toolchain.error_message e)
  | Ok (model, _) -> (
      add (Model.to_string model);
      match Toolchain.pass2 model prog with
      | exe ->
        List.iter
          (fun (name, (ck : Multi_gpu.compiled_kernel)) ->
             add ("kernel " ^ name);
             List.iter (fun e -> add (Codegen.render_entry e)) ck.ck_enums.Codegen.entries;
             add ("verdict " ^ Verify.verdict_to_string ck.ck_gate))
          exe.Multi_gpu.compiled
      | exception Invalid_argument msg -> add ("link refused: " ^ msg))

let examples () =
  let dir = Filename.concat (Workload.root ()) "examples/cuda" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cu")
  |> List.sort compare
  |> List.map (fun f ->
      { Corpus.p_name = f;
        p_source = Workload.read_file (Filename.concat dir f);
        p_label = Corpus.Safe })

let corpus_text () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter (text_of_program buf)
    (Corpus.generate ~seed:1 @ Corpus.generate ~seed:7 @ examples ());
  Buffer.contents buf

(* The corpus text and the polyhedral work of producing it, counted
   from zero: one compile of the corpus feeds both cases. *)
let compiled =
  lazy
    (Ppoly.Work.reset ();
     let text = corpus_text () in
     (text, Ppoly.Work.totals ()))

let test_digest () =
  let text = fst (Lazy.force compiled) in
  (match Sys.getenv_opt "MEKONG_CORPUS_DUMP" with
   | Some file -> Out_channel.with_open_bin file (fun oc -> output_string oc text)
   | None -> ());
  Alcotest.(check string) "corpus digest" expected (Digest.to_hex (Digest.string text))

(* The [poly.*] totals of compiling the corpus (Ppoly.Work): exact,
   since the library's work is a function of its inputs.  A change to
   how polyhedra are built or projected moves them even when every
   output stays the same.  Recorded once the partition box was built
   at indices; building it by name, the same corpus took 58,202
   eliminations, 96,578 created rows and 208,517 normalized rows. *)
let expected_work =
  [
    ("poly.eliminations", 40929);
    ("poly.created_rows", 79305);
    ("poly.projections", 8255);
    ("poly.emptiness_tests", 2414);
    ("poly.normalized_rows", 114610);
  ]

let test_work () =
  let work = snd (Lazy.force compiled) in
  Alcotest.(check (list (pair string int))) "polyhedral work" expected_work work

let () =
  Alcotest.run "corpus-digest"
    [
      ( "corpus-digest",
        [
          Alcotest.test_case "models, enumerators, verdicts" `Quick test_digest;
          Alcotest.test_case "polyhedral work totals" `Quick test_work;
        ] );
    ]
