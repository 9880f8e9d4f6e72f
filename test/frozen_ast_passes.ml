(* Frozen oracles for the source-level (AST) passes.

   For every corpus benchmark and every [Passes.Ast_opt] entry point (at
   the [Toolchain.Config] default parameters, with [normalize_calls] run
   first where the pipeline requires it), the MD5 of the marshalled
   output program and its node count were recorded before the AST
   traversal was unified behind [Minic.Ast_walk].  [Marshal.No_sharing]
   keeps the digest independent of physical sharing ([unroll] repeats
   one body list), so only the tree's shape counts.  Any drift in a pass
   or in the traversal it is built on shows up as a mismatch naming the
   pass and the benchmark.

   To re-baseline after an *intentional* change, recompute with
   [digest_of] below and update the table in the same commit as the
   change, with a justification. *)

module AO = Passes.Ast_opt

let cfg = Toolchain.Config.o0

let passes : (string * (Minic.Ast.program -> Minic.Ast.program)) list =
  [
    ("normalize_calls", AO.normalize_calls);
    ("expand_builtins", fun p -> AO.expand_builtins (AO.normalize_calls p));
    ( "inline_small",
      fun p ->
        AO.inline ~max_size:cfg.inline_small_threshold ~rounds:cfg.inline_rounds
          (AO.normalize_calls p) );
    ( "inline_big",
      fun p ->
        AO.inline ~max_size:cfg.inline_big_threshold ~rounds:cfg.inline_rounds
          (AO.normalize_calls p) );
    ("unswitch", AO.unswitch);
    ("distribute", AO.distribute);
    ("unroll_and_jam", AO.unroll_and_jam);
    ( "unroll",
      AO.unroll ~factor:cfg.unroll_factor ~full_limit:cfg.full_unroll_limit );
    ("peel", AO.peel);
    ("instrument", AO.instrument);
    (* every pass in the pipeline's canonical order, so the loop passes
       also see inlined and expanded code *)
    ( "ast_chain",
      fun p ->
        AO.normalize_calls (AO.instrument p)
        |> AO.expand_builtins
        |> AO.inline ~max_size:cfg.inline_big_threshold ~rounds:cfg.inline_rounds
        |> AO.unswitch |> AO.distribute |> AO.unroll_and_jam
        |> AO.unroll ~factor:cfg.unroll_factor ~full_limit:cfg.full_unroll_limit
        |> AO.peel );
  ]

let digest_of pass bench =
  let p = pass (Corpus.program bench) in
  ( Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ])),
    Minic.Ast_walk.program_size p )

(* (pass, [(benchmark, digest, program_size)]) *)
let digests =
  [
    ( "normalize_calls",
      [
        ("400.perlbench", "ce16424894643f2b213efde1d921c3df", 421);
        ("401.bzip2", "c34cf646f9092f06845fb15f297ce823", 405);
        ("429.mcf", "292c841a8d311449f63f765086e73664", 361);
        ("445.gobmk", "a2c90ec2703875437efe09ce74676239", 633);
        ("456.hmmer", "6044aaa3951029177b47da7688a756b5", 416);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "281e64f4f01ec30fb864d95cd461e9e0", 401);
        ("464.h264ref", "3813f8b1312ce475008f6ba356013174", 425);
        ("473.astar", "3aa875e6dafd207f64b187fadfe01388", 334);
        ("483.xalancbmk", "1fa44213e80b3ddb287f957e08db77b7", 348);
        ("600.perlbench_s", "84abf71455304e1ec59782f83fd29d9a", 364);
        ("605.mcf_s", "4a5d44b9ba128ae5a15adeef7c78205c", 473);
        ("620.omnetpp_s", "a6ca2f36d8d8bd02801ea783a1d0fd6b", 518);
        ("623.xalancbmk_s", "651b566f5d0a346be6c9665d1d9c09db", 456);
        ("625.x264_s", "0282085e6da11c8889f78395787c6551", 389);
        ("631.deepsjeng_s", "4d99cabb847e2a607603725bc3f3cbc3", 415);
        ("641.leela_s", "7ac3a27c4d6cecacab8f9540df6df7a3", 419);
        ("648.exchange2_s", "7e0bf637e52fd426e57c5792b4a25597", 466);
        ("657.xz_s", "01732e54ee4b93b5f0546506af6c02ba", 414);
        ("coreutils", "7e4d07b4f06c16b5bb4626af3fae903b", 718);
        ("openssl", "81b81848020994ea81cf7244a79d7b14", 652);
        ("lightaidra", "e5500ec3d647b2d154b5caf20c8512bc", 453);
        ("bashlife", "b6d09134c2d67811c9af4ab98f6da9a1", 399);
        ("mirai", "e8fe05080b34ee54fde32b63d9a8eef4", 417);
      ] );
    ( "expand_builtins",
      [
        ("400.perlbench", "ce16424894643f2b213efde1d921c3df", 421);
        ("401.bzip2", "c34cf646f9092f06845fb15f297ce823", 405);
        ("429.mcf", "292c841a8d311449f63f765086e73664", 361);
        ("445.gobmk", "a2c90ec2703875437efe09ce74676239", 633);
        ("456.hmmer", "6044aaa3951029177b47da7688a756b5", 416);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "281e64f4f01ec30fb864d95cd461e9e0", 401);
        ("464.h264ref", "3813f8b1312ce475008f6ba356013174", 425);
        ("473.astar", "3aa875e6dafd207f64b187fadfe01388", 334);
        ("483.xalancbmk", "1fa44213e80b3ddb287f957e08db77b7", 348);
        ("600.perlbench_s", "84abf71455304e1ec59782f83fd29d9a", 364);
        ("605.mcf_s", "4a5d44b9ba128ae5a15adeef7c78205c", 473);
        ("620.omnetpp_s", "a6ca2f36d8d8bd02801ea783a1d0fd6b", 518);
        ("623.xalancbmk_s", "651b566f5d0a346be6c9665d1d9c09db", 456);
        ("625.x264_s", "0282085e6da11c8889f78395787c6551", 389);
        ("631.deepsjeng_s", "4d99cabb847e2a607603725bc3f3cbc3", 415);
        ("641.leela_s", "7ac3a27c4d6cecacab8f9540df6df7a3", 419);
        ("648.exchange2_s", "7e0bf637e52fd426e57c5792b4a25597", 466);
        ("657.xz_s", "01732e54ee4b93b5f0546506af6c02ba", 414);
        ("coreutils", "7e4d07b4f06c16b5bb4626af3fae903b", 718);
        ("openssl", "81b81848020994ea81cf7244a79d7b14", 652);
        ("lightaidra", "e5500ec3d647b2d154b5caf20c8512bc", 453);
        ("bashlife", "b6d09134c2d67811c9af4ab98f6da9a1", 399);
        ("mirai", "e8fe05080b34ee54fde32b63d9a8eef4", 417);
      ] );
    ( "inline_small",
      [
        ("400.perlbench", "ce16424894643f2b213efde1d921c3df", 421);
        ("401.bzip2", "c34cf646f9092f06845fb15f297ce823", 405);
        ("429.mcf", "292c841a8d311449f63f765086e73664", 361);
        ("445.gobmk", "d058d0274b8d41ce2274d16852e9aa6c", 713);
        ("456.hmmer", "6044aaa3951029177b47da7688a756b5", 416);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "281e64f4f01ec30fb864d95cd461e9e0", 401);
        ("464.h264ref", "3813f8b1312ce475008f6ba356013174", 425);
        ("473.astar", "3aa875e6dafd207f64b187fadfe01388", 334);
        ("483.xalancbmk", "1fa44213e80b3ddb287f957e08db77b7", 348);
        ("600.perlbench_s", "84abf71455304e1ec59782f83fd29d9a", 364);
        ("605.mcf_s", "addfdbd987d468027fa9d713cd925c93", 597);
        ("620.omnetpp_s", "a6ca2f36d8d8bd02801ea783a1d0fd6b", 518);
        ("623.xalancbmk_s", "651b566f5d0a346be6c9665d1d9c09db", 456);
        ("625.x264_s", "0282085e6da11c8889f78395787c6551", 389);
        ("631.deepsjeng_s", "4d99cabb847e2a607603725bc3f3cbc3", 415);
        ("641.leela_s", "7ac3a27c4d6cecacab8f9540df6df7a3", 419);
        ("648.exchange2_s", "7e0bf637e52fd426e57c5792b4a25597", 466);
        ("657.xz_s", "01732e54ee4b93b5f0546506af6c02ba", 414);
        ("coreutils", "3aa85813fe66c310e79e5a0babe7cfcb", 762);
        ("openssl", "81b81848020994ea81cf7244a79d7b14", 652);
        ("lightaidra", "e5500ec3d647b2d154b5caf20c8512bc", 453);
        ("bashlife", "b6d09134c2d67811c9af4ab98f6da9a1", 399);
        ("mirai", "e8fe05080b34ee54fde32b63d9a8eef4", 417);
      ] );
    ( "inline_big",
      [
        ("400.perlbench", "37d529763ea0d0f36131e8bc4957d5b9", 685);
        ("401.bzip2", "96a126b6182ef89664f5f4e5d8680209", 581);
        ("429.mcf", "8d300b6e5069ab175da5cfd5fa830d86", 556);
        ("445.gobmk", "9f83276ef9960f15b528e631f123fb3b", 839);
        ("456.hmmer", "125783bcc2a8807d9e532680fa33879b", 490);
        ("458.sjeng", "2f357ee11c6f0b73041f1c6cac7d0115", 703);
        ("462.libquantum", "2c9d666f18fffe12869a0ae137b3d682", 648);
        ("464.h264ref", "f2170753c43568026281ce75fa547920", 595);
        ("473.astar", "8f7c9a228898e281f821ef0bcbae10b3", 629);
        ("483.xalancbmk", "90794a613b08870ccd3a7fc0321673f7", 426);
        ("600.perlbench_s", "5c0bf4ff9a00028ec96de9845f491c96", 419);
        ("605.mcf_s", "01982a31933856d60307161d82fba6e8", 706);
        ("620.omnetpp_s", "38bad2b3eb1c88399761c1b5cc05b142", 1050);
        ("623.xalancbmk_s", "863ea65826fe5bae512ab381f2aef973", 481);
        ("625.x264_s", "28a0a20ce361dbd9020a25ac29bc1352", 452);
        ("631.deepsjeng_s", "4a8aa1cc0e8d1e1053eceb460020cf30", 611);
        ("641.leela_s", "18f779bad851fd46a6f345a1b2986443", 697);
        ("648.exchange2_s", "7e0bf637e52fd426e57c5792b4a25597", 466);
        ("657.xz_s", "6fc841c281f38a85070151ca353f3fb2", 527);
        ("coreutils", "8a6de4f0441777416ab3d2a08707ecd1", 1409);
        ("openssl", "339eb7febb8c7ce8d854d1ab382203cf", 837);
        ("lightaidra", "b8b00677f95ad981fe309d3011e6d859", 1149);
        ("bashlife", "65b20bcc965f85bf5786aabd8581d18f", 637);
        ("mirai", "2763578bc234721209c8a19d65cb7a5e", 626);
      ] );
    ( "unswitch",
      [
        ("400.perlbench", "9d3aeb75b3952bbbdecf6b7f8e56413f", 417);
        ("401.bzip2", "cb997ff142d00d7e10067c11c063cf73", 403);
        ("429.mcf", "2326ec21c995ad7ecd3f52910fe1e8e6", 357);
        ("445.gobmk", "2bc0c0dda4746f37375d09f5602b5fe6", 617);
        ("456.hmmer", "49a39402ae2c636fcee84146129aeb1b", 410);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "7316ab1261bf0b9a201de551b2d57a05", 393);
        ("464.h264ref", "f474d030c395a403ef5a9025ba4c37cd", 419);
        ("473.astar", "d93e85dfbd80cf6ab6809f609703426a", 332);
        ("483.xalancbmk", "47603e146acae5216751d9d654e37302", 344);
        ("600.perlbench_s", "5f7406985106838b37533b5abbb0b3b1", 348);
        ("605.mcf_s", "6073d433bf37d910706d4570fd56acb9", 459);
        ("620.omnetpp_s", "18245ec196a133c3a15f35e9aeff0032", 496);
        ("623.xalancbmk_s", "b1ed2d2095a82394b98ff82fcd3ba3bc", 426);
        ("625.x264_s", "767d6ed00ded6581fab3230216f8eb32", 381);
        ("631.deepsjeng_s", "83db47a71e87f873230002e79b5fdcbc", 405);
        ("641.leela_s", "94e94ccfe7caeb2b43ad8a248fb3ec59", 415);
        ("648.exchange2_s", "3fb256b2b93bbc3f16a35b23ef302e8d", 462);
        ("657.xz_s", "36de05ac1e847c4428b17b3c863ade87", 412);
        ("coreutils", "347e328c47e0aded6f10a0c56923d878", 712);
        ("openssl", "f0855dfff36bd49f083bfcec23ede9e6", 642);
        ("lightaidra", "3c1a86b655eece10a5521c6b3641d9c5", 431);
        ("bashlife", "bcccb50a541204d8211920e9019bc352", 389);
        ("mirai", "b5132a3196e903c238c7955f82ec8d21", 403);
      ] );
    ( "distribute",
      [
        ("400.perlbench", "9d3aeb75b3952bbbdecf6b7f8e56413f", 417);
        ("401.bzip2", "cb997ff142d00d7e10067c11c063cf73", 403);
        ("429.mcf", "2326ec21c995ad7ecd3f52910fe1e8e6", 357);
        ("445.gobmk", "2bc0c0dda4746f37375d09f5602b5fe6", 617);
        ("456.hmmer", "49a39402ae2c636fcee84146129aeb1b", 410);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "7316ab1261bf0b9a201de551b2d57a05", 393);
        ("464.h264ref", "f474d030c395a403ef5a9025ba4c37cd", 419);
        ("473.astar", "d93e85dfbd80cf6ab6809f609703426a", 332);
        ("483.xalancbmk", "47603e146acae5216751d9d654e37302", 344);
        ("600.perlbench_s", "5f7406985106838b37533b5abbb0b3b1", 348);
        ("605.mcf_s", "6073d433bf37d910706d4570fd56acb9", 459);
        ("620.omnetpp_s", "18245ec196a133c3a15f35e9aeff0032", 496);
        ("623.xalancbmk_s", "b1ed2d2095a82394b98ff82fcd3ba3bc", 426);
        ("625.x264_s", "767d6ed00ded6581fab3230216f8eb32", 381);
        ("631.deepsjeng_s", "83db47a71e87f873230002e79b5fdcbc", 405);
        ("641.leela_s", "94e94ccfe7caeb2b43ad8a248fb3ec59", 415);
        ("648.exchange2_s", "3fb256b2b93bbc3f16a35b23ef302e8d", 462);
        ("657.xz_s", "36de05ac1e847c4428b17b3c863ade87", 412);
        ("coreutils", "347e328c47e0aded6f10a0c56923d878", 712);
        ("openssl", "f0855dfff36bd49f083bfcec23ede9e6", 642);
        ("lightaidra", "3c1a86b655eece10a5521c6b3641d9c5", 431);
        ("bashlife", "bcccb50a541204d8211920e9019bc352", 389);
        ("mirai", "b5132a3196e903c238c7955f82ec8d21", 403);
      ] );
    ( "unroll_and_jam",
      [
        ("400.perlbench", "9d3aeb75b3952bbbdecf6b7f8e56413f", 417);
        ("401.bzip2", "cb997ff142d00d7e10067c11c063cf73", 403);
        ("429.mcf", "2326ec21c995ad7ecd3f52910fe1e8e6", 357);
        ("445.gobmk", "2bc0c0dda4746f37375d09f5602b5fe6", 617);
        ("456.hmmer", "58f87e95034c6fed3043eb3b9ccbfde8", 484);
        ("458.sjeng", "43a31acc598c83982536c1f454947f58", 523);
        ("462.libquantum", "7316ab1261bf0b9a201de551b2d57a05", 393);
        ("464.h264ref", "cd257cd4691f78f0ca6bac3a02e65e31", 467);
        ("473.astar", "d93e85dfbd80cf6ab6809f609703426a", 332);
        ("483.xalancbmk", "47603e146acae5216751d9d654e37302", 344);
        ("600.perlbench_s", "5f7406985106838b37533b5abbb0b3b1", 348);
        ("605.mcf_s", "6073d433bf37d910706d4570fd56acb9", 459);
        ("620.omnetpp_s", "18245ec196a133c3a15f35e9aeff0032", 496);
        ("623.xalancbmk_s", "b1ed2d2095a82394b98ff82fcd3ba3bc", 426);
        ("625.x264_s", "767d6ed00ded6581fab3230216f8eb32", 381);
        ("631.deepsjeng_s", "83db47a71e87f873230002e79b5fdcbc", 405);
        ("641.leela_s", "94e94ccfe7caeb2b43ad8a248fb3ec59", 415);
        ("648.exchange2_s", "3fb256b2b93bbc3f16a35b23ef302e8d", 462);
        ("657.xz_s", "36de05ac1e847c4428b17b3c863ade87", 412);
        ("coreutils", "347e328c47e0aded6f10a0c56923d878", 712);
        ("openssl", "f0855dfff36bd49f083bfcec23ede9e6", 642);
        ("lightaidra", "3c1a86b655eece10a5521c6b3641d9c5", 431);
        ("bashlife", "bcccb50a541204d8211920e9019bc352", 389);
        ("mirai", "b5132a3196e903c238c7955f82ec8d21", 403);
      ] );
    ( "unroll",
      [
        ("400.perlbench", "e6743ea34f2f7d407bfceeed9e397f96", 743);
        ("401.bzip2", "92662de357b02d9cb1cfa525a40e9ede", 1099);
        ("429.mcf", "34a4b93449f6f0189e606b40a88630ec", 1013);
        ("445.gobmk", "93b068e6fc7203b79f4b2c22606326f1", 1781);
        ("456.hmmer", "a4c2024a6b48956f03efc3e1c7f529da", 1642);
        ("458.sjeng", "226b27a0f9f5a6ea862c4a9380e157a7", 823);
        ("462.libquantum", "52576fc642e61019016b54bd796d96e7", 1170);
        ("464.h264ref", "df103914bd34ea5dd29e8f8268d9b751", 2239);
        ("473.astar", "f84c023bb2c2293aca5142e37b511ce1", 584);
        ("483.xalancbmk", "ad26c46864d954015fec411ce84a865a", 546);
        ("600.perlbench_s", "42ce28dad3d65ab13e529a052f06c67c", 502);
        ("605.mcf_s", "9e8c1df4a7dd1e8708106f84d2333a6d", 699);
        ("620.omnetpp_s", "38b63d54697709dc1f6bfe2db91f76c1", 704);
        ("623.xalancbmk_s", "c59039a425c085ee3d812f4b0c80da32", 772);
        ("625.x264_s", "2d0c199397357d48ff3c1708315f1290", 1001);
        ("631.deepsjeng_s", "a70b3df4439f660fd0ea092ff780cae2", 651);
        ("641.leela_s", "9a6ffce9072d877fd07e76eec94a2a02", 773);
        ("648.exchange2_s", "2695063fd8efc7daae515e24b42e9188", 1074);
        ("657.xz_s", "11194baacb82f7011b60a76c732ba26b", 778);
        ("coreutils", "66b9d0659bff9548643cba568f924bb7", 1998);
        ("openssl", "5d7368f541e5ae36d84716e88f43db5b", 1554);
        ("lightaidra", "10c114deb9669153440e711143512442", 675);
        ("bashlife", "d15bfaf4e74f1676fe6b051e29f94ab9", 1035);
        ("mirai", "1f6ce5c931737381f348240a77498f9d", 713);
      ] );
    ( "peel",
      [
        ("400.perlbench", "6ab1483a5a3f0a17c7991512b973da1d", 503);
        ("401.bzip2", "9b0d5a0d9eb825bd3c9a655ffe436904", 597);
        ("429.mcf", "54acc77ede39b946e42a1ae798148377", 541);
        ("445.gobmk", "81ba4b0d2aec7d594411b801a3fe048b", 948);
        ("456.hmmer", "2315c079a5498e24d8ec0b0d6737b9ac", 941);
        ("458.sjeng", "bc1f0ace9b1a1671451646eef6c99ce3", 608);
        ("462.libquantum", "1c68eed633920d160df61d116d6b76ab", 617);
        ("464.h264ref", "56f471f79aa3c1772ab31dc3d3c9339e", 951);
        ("473.astar", "d452774dd83a1acc8acc0be77bb85382", 405);
        ("483.xalancbmk", "03565816899ec1bddd29564a22441b54", 401);
        ("600.perlbench_s", "23617129ba53b55862e0c2b01a94fede", 394);
        ("605.mcf_s", "d2d657405e27d8362446ca30f19b654f", 529);
        ("620.omnetpp_s", "71235bb3969cb9876776c011b22e3937", 558);
        ("623.xalancbmk_s", "d48fba9faf654177f17995d25281f8ef", 520);
        ("625.x264_s", "0e202946e1f25334612e6eb983be8983", 796);
        ("631.deepsjeng_s", "090ca647440a406db95b47d3ab9bce65", 479);
        ("641.leela_s", "596813b5c5162b549b59e7bf0358d87a", 517);
        ("648.exchange2_s", "8d5f0a4bc9f39e8660aabbf63cf7780f", 1077);
        ("657.xz_s", "4816d69f7443913ff71741dd7d221a06", 516);
        ("coreutils", "80398620754a106f60ac97ab2acb27c0", 1131);
        ("openssl", "8561bfea63940c4871471c9820072886", 1075);
        ("lightaidra", "851831a507a09355715055b628bdf4f7", 502);
        ("bashlife", "95783bc875d056f9a1445b5bda1a164f", 510);
        ("mirai", "ed0f9e8dbaf5ceae65b95e271b9bf156", 493);
      ] );
    ( "instrument",
      [
        ("400.perlbench", "6a5cd88d133f5cb24e3d2220c2b56ce5", 581);
        ("401.bzip2", "15d0814d1d4216967d7ec6f4965aac7e", 564);
        ("429.mcf", "1238df8e0c1ecd91a29191993fc19126", 506);
        ("445.gobmk", "38159c7aa77d58b02c33bcb7db29675b", 795);
        ("456.hmmer", "f1f911e289951fcc8285f49f0028929e", 561);
        ("458.sjeng", "4cd235ca456bb4812d12dfe7c88087cf", 675);
        ("462.libquantum", "3e205b1250fa3fec52aabdc49395d800", 564);
        ("464.h264ref", "90668a3759e7d2359ed24e9ef3c1b7f0", 582);
        ("473.astar", "c91afdfc6f6e6093d7c88d30c7d5a6e9", 494);
        ("483.xalancbmk", "a64c01640ffd057f6502caf0ebd063e3", 483);
        ("600.perlbench_s", "669531b226e8db42db7d2d9d3260e784", 499);
        ("605.mcf_s", "ec1854b749b4e4ad0ca380dfbd6231d5", 646);
        ("620.omnetpp_s", "1a184b69f8482f0a6d305826ecaebf76", 661);
        ("623.xalancbmk_s", "b554c41987b032c9fee0e5932f49bda9", 600);
        ("625.x264_s", "cf1357a9306a330c9c324c617f026990", 541);
        ("631.deepsjeng_s", "7eaa187cc42d554884d5c9218bc98710", 566);
        ("641.leela_s", "69dba099fd7c7c041a6fd0b3faf91266", 577);
        ("648.exchange2_s", "7f400eabdce2e744b456d181c86c4784", 603);
        ("657.xz_s", "4677fd3b602b89d396f322704bd5ca24", 562);
        ("coreutils", "e965de2b2778e838bdd6c75f81b17b9d", 987);
        ("openssl", "11d19b77d578f53f56be4ea821cf7a95", 831);
        ("lightaidra", "723440b035073652ca4467193e28e2e2", 624);
        ("bashlife", "2cd5a9bc6b6edbc4d0cc3ccfb37d5236", 562);
        ("mirai", "0d3fe8e7eb0e6eb673c38ba5c56c6cda", 585);
      ] );
    ( "ast_chain",
      [
        ("400.perlbench", "76b8e80bf1d4b67e6b0e8e255d42844f", 2097);
        ("401.bzip2", "f41742a356800c76e2c3b85192b015df", 2494);
        ("429.mcf", "3ae8a0273b798466587b1be2fae7b6a5", 2613);
        ("445.gobmk", "ff6f935fc86b05a986b806b61224def5", 3121);
        ("456.hmmer", "3b038a3d930307514331b726ce78a212", 4014);
        ("458.sjeng", "c31de7202bf741e736588194727fd0cd", 1951);
        ("462.libquantum", "cd8a258de10a732b86caa95b4ee69b2e", 3199);
        ("464.h264ref", "4b469ebf96708b7ce5431c9402398a4c", 4501);
        ("473.astar", "2205bd71ee26451329429d4480e41275", 1799);
        ("483.xalancbmk", "0c3f2ff9f4feba4dea15b7cf8fe353e1", 1613);
        ("600.perlbench_s", "e87a81a19fcdb2b89bdd527e8b97fd9a", 1401);
        ("605.mcf_s", "c9cd07e2bb6ec2c99de2794dd0651d7a", 2080);
        ("620.omnetpp_s", "50aa4769b849e668a986e7a4109857bd", 2239);
        ("623.xalancbmk_s", "8e001ce1cbbe227118a57a91941d0669", 1683);
        ("625.x264_s", "489a5052ee621e6b7a467c0ab5f72e4e", 2743);
        ("631.deepsjeng_s", "f16d477477e3c649f020b35334a930c1", 1926);
        ("641.leela_s", "2435a9d9a0ad1bb664afc2ec049b0662", 1976);
        ("648.exchange2_s", "a1ce5927d383be4dab0d1838c6185dea", 2422);
        ("657.xz_s", "6948ec1d6826174681fccee01ae794e7", 1965);
        ("coreutils", "bdb0b7ed51a54fe6c7dd8972fc2a4cf3", 5600);
        ("openssl", "a59eac858b8898df8cabde1ca09645c4", 3599);
        ("lightaidra", "67329b55c950f623400d7a92d385ba09", 2611);
        ("bashlife", "ae3a055d05cc1127ccac13e89f5d01f3", 2881);
        ("mirai", "6044e21e7fc3a0ab0ff50a67ebb3c8af", 2380);
      ] );
  ]

let check (pname, pass) () =
  let table = List.assoc pname digests in
  Alcotest.(check int)
    (pname ^ " table covers the corpus")
    (List.length Corpus.all) (List.length table);
  List.iter
    (fun b ->
      let d, size = digest_of pass b in
      let _, d0, size0 =
        List.find (fun (n, _, _) -> n = b.Corpus.bname) table
      in
      let what = Printf.sprintf "%s on %s" pname b.Corpus.bname in
      Alcotest.(check string) what d0 d;
      Alcotest.(check int) (what ^ " size") size0 size)
    Corpus.all

let tests =
  List.map
    (fun ((pname, _) as spec) ->
      Alcotest.test_case ("frozen " ^ pname) `Quick (check spec))
    passes
