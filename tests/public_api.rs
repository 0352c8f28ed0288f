//! Public-API smoke test: the prelude re-exports the workspace's intended
//! surface. If a refactor accidentally drops or renames one of these
//! items, this test fails tier-1 instead of breaking downstream users.

use amric_repro::prelude::*;

#[test]
fn prelude_exposes_the_codec_api() {
    // Each family is its own pair of functions, reachable from the
    // prelude alone: SZ_L/R, SZ_Interp, the AMRIC pipeline and its
    // temporal delta mode.
    let units = vec![Buffer3::zeros(Dims3::cube(4)); 2];
    let lr_stream = lr::compress_domains(&units, &LrConfig::new(1e-3));
    assert_eq!(lr::decompress_domains(&lr_stream).expect("lr").len(), 2);
    let interp_stream = interp::compress(&units[0], &InterpConfig::new(1e-3));
    assert!(interp::decompress(&interp_stream).is_ok());
    let pipeline_stream = compress_field_units(&units, &AmricConfig::lr(1e-3), 4);
    assert_eq!(
        decompress_field_units(&pipeline_stream)
            .expect("amric")
            .len(),
        2
    );
    let reference: Reference = (7, std::sync::Arc::new(units.clone()));
    let mut temporal_stream = Vec::new();
    compress_delta_into(
        &units,
        &AmricConfig::lr(1e-3),
        4,
        1e-3,
        (7, &reference.1),
        &[Some(1), None],
        &mut AmricScratch::default(),
        &mut temporal_stream,
    )
    .expect("temporal");
    let mut back = Vec::new();
    decompress_field_units_into(&temporal_stream, &mut back, &mut || Ok(reference.clone()))
        .expect("temporal");
    assert_eq!(back.len(), 2);
    assert!(
        decompress_field_units_into(&temporal_stream, &mut Vec::new(), &mut no_reference).is_err()
    );

    // The envelope they share names the family that wrote each stream.
    for (stream, id) in [
        (&lr_stream, CodecId::LrSle),
        (&interp_stream, CodecId::Interp),
        (&pipeline_stream, CodecId::AmricPipeline),
        (&temporal_stream, CodecId::AmricPipeline),
    ] {
        let env = codec::read_envelope(stream).expect("envelope");
        assert_eq!(CodecId::from_u16(env.codec), Some(id));
        assert!(codec::expect_envelope(stream, id, env.version).is_ok());
    }
}

#[test]
fn prelude_exposes_the_error_hierarchy() {
    // The typed errors and their lossless conversion into H5Error.
    let e: CodecError = CodecError::BadMode { found: 7 };
    let h: h5lite::H5Error = e.clone().into();
    assert!(matches!(
        h.as_codec(),
        Some(CodecError::BadMode { found: 7 })
    ));
    let _: CodecResult<()> = Err(e);
}

#[test]
fn prelude_exposes_configs_filters_and_pipeline() {
    // Builder-style configs.
    let cfg: AmricConfig = AmricConfig::interp(1e-3).with_cluster_arrangement(false);
    let _base: BaselineConfig = BaselineConfig::new(1e-2).with_chunk_elems(4096);
    let _merge: MergePolicy = MergePolicy::SharedEncoding;

    // The pipeline free functions and the zero-alloc writer path.
    let units = vec![Buffer3::zeros(Dims3::cube(4))];
    let abs = resolve_abs_eb(&units, 1e-3);
    let mut out = Vec::new();
    compress_field_units_with_bound_into(
        &units,
        &cfg,
        4,
        abs,
        &mut AmricScratch::default(),
        &mut out,
    );
    assert_eq!(decompress_field_units(&out).expect("decode").len(), 1);
    assert_eq!(compress_field_units(&units, &cfg, 4), out);

    // h5lite filter surface.
    fn assert_filter<F: ChunkFilter>() {}
    assert_filter::<NoFilter>();
    assert_filter::<SzFilter>();
    let _mode: FilterMode = FilterMode::SizeAware;
}
