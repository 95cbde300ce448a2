package repro.spark

import java.nio.file.Files
import repro.SparkSpec
import repro.climate.ClimateData

class SketchStoreSpec extends SparkSpec {

  private lazy val raw = ClimateData.toDF(spark, ClimateData.series(4, 60, 61L)).cache()
  private lazy val sketch = Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, 15))

  private def tempRoot(): String =
    Files.createTempDirectory("sketch_store_test").toString

  test("parquet round-trip preserves the sketch") {
    val store = SketchStore(tempRoot())
    store.writePair(sketch)
    val back = store.readPair(spark)
    val a = sketch.collect().map(_.toSeq.map {
      case d: Double => f"$d%.9f"; case x => x.toString
    }).map(_.mkString("|")).sorted
    val b = back.collect().map(_.toSeq.map {
      case d: Double => f"$d%.9f"; case x => x.toString
    }).map(_.mkString("|")).sorted
    assert(a.sameElements(b))
    store.delete()
  }

  test("csv round-trip preserves values to float tolerance") {
    val store = SketchStore(tempRoot(), format = "csv")
    store.writePair(sketch)
    val back = store.readPair(spark).collect()
      .map(r => ((r.getAs[Int]("i"), r.getAs[Int]("j"), r.getAs[Long]("w")), r.getAs[Double]("c"))).toMap
    sketch.collect().foreach { r =>
      val key = (r.getAs[Int]("i"), r.getAs[Int]("j"), r.getAs[Long]("w"))
      assert(math.abs(back(key) - r.getAs[Double]("c")) < 1e-9, s"$key")
    }
    store.delete()
  }

  test("csv round-trip of a DFT sketch keeps d_sq") {
    val store = SketchStore(tempRoot(), format = "csv")
    val dftSketch = Sketcher.pairSketch(Sketcher.withDft(Sketcher.seriesWindowStats(raw, 15)), 10)
    store.writePair(dftSketch)
    val back = store.readPair(spark).collect()
      .map(r => ((r.getAs[Int]("i"), r.getAs[Int]("j"), r.getAs[Long]("w")),
        (r.getAs[Double]("c"), r.getAs[Double]("d_sq")))).toMap
    val written = dftSketch.collect()
    assert(back.size == written.length)
    written.foreach { r =>
      val key = (r.getAs[Int]("i"), r.getAs[Int]("j"), r.getAs[Long]("w"))
      val (c, dSq) = back(key)
      assert(math.abs(c - r.getAs[Double]("c")) < 1e-9, s"c $key")
      assert(math.abs(dSq - r.getAs[Double]("d_sq")) < 1e-9, s"d_sq $key")
    }
    store.delete()
  }

  test("csv and parquet stores read back the same schema") {
    val dftSketch = Sketcher.pairSketch(Sketcher.withDft(Sketcher.seriesWindowStats(raw, 15)), 10)
    val types = Seq("parquet", "csv").map { format =>
      val store = SketchStore(tempRoot(), format)
      store.writePair(dftSketch)
      val fields = store.readPair(spark).schema.fields.map(f => f.name -> f.dataType).toSeq
      store.delete()
      fields
    }
    assert(types(0) == types(1))
    assert(types(0).toMap.apply("w") == org.apache.spark.sql.types.LongType)
  }

  test("sizeBytes is positive after write, zero before") {
    val store = SketchStore(tempRoot())
    assert(store.sizeBytes == 0L)
    store.writePair(sketch)
    assert(store.sizeBytes > 0L)
    store.delete()
  }

  test("csv store grows with the number of windows (smaller B → bigger store)") {
    val small = SketchStore(tempRoot(), format = "csv")
    val large = SketchStore(tempRoot(), format = "csv")
    small.writePair(Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, 10))) // 6 windows
    large.writePair(Sketcher.pairSketch(Sketcher.seriesWindowStats(raw, 30))) // 2 windows
    assert(small.sizeBytes > large.sizeBytes)
    small.delete(); large.delete()
  }

  test("delete removes the store") {
    val root = tempRoot()
    val store = SketchStore(root)
    store.writePair(sketch)
    store.delete()
    assert(!Files.exists(java.nio.file.Paths.get(root)))
    assert(store.sizeBytes == 0L)
  }

  test("transient array columns are not persisted") {
    val store = SketchStore(tempRoot())
    val dftSketch = Sketcher.pairSketch(Sketcher.withDft(Sketcher.seriesWindowStats(raw, 15)), 10)
    store.writePair(dftSketch)
    val cols = store.readPair(spark).columns.toSet
    assert(!cols.contains("vx") && !cols.contains("dft_x"))
    assert(cols.contains("d_sq"))
    store.delete()
  }

  test("unsupported format rejected") {
    intercept[IllegalArgumentException](SketchStore("/tmp/x", format = "orc"))
  }
}
