// Tests for the synthetic dataset generators and the IDX reader.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "data/idx_loader.hpp"
#include "data/synthetic.hpp"

namespace dfc::data {
namespace {

TEST(UspsLikeTest, ShapesAndLabels) {
  const Dataset ds = make_usps_like(64);
  EXPECT_EQ(ds.size(), 64u);
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_EQ(ds.image_shape(), (Shape3{1, 16, 16}));
  for (auto l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
}

TEST(UspsLikeTest, DeterministicPerSeed) {
  SyntheticOptions opts;
  opts.seed = 5;
  const Dataset a = make_usps_like(8, opts);
  const Dataset b = make_usps_like(8, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.labels[i], b.labels[i]);
    EXPECT_TRUE(tensors_close(a.images[i], b.images[i], 0.0f, 0.0f));
  }
}

TEST(UspsLikeTest, DifferentSeedsDiffer) {
  SyntheticOptions a_opts;
  a_opts.seed = 1;
  SyntheticOptions b_opts;
  b_opts.seed = 2;
  const Dataset a = make_usps_like(8, a_opts);
  const Dataset b = make_usps_like(8, b_opts);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= !tensors_close(a.images[i], b.images[i], 0.0f, 0.0f);
  }
  EXPECT_TRUE(any_diff);
}

TEST(UspsLikeTest, PixelRangeClamped) {
  const Dataset ds = make_usps_like(16);
  for (const auto& img : ds.images) {
    for (float v : img.flat()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(UspsLikeTest, ClassesAreDistinguishable) {
  // Noise-free renders of distinct digits must differ.
  SyntheticOptions opts;
  opts.noise_stddev = 0.0f;
  opts.max_shift = 0;
  const Dataset ds = make_usps_like(200, opts);
  Tensor by_class[10];
  bool seen[10] = {};
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto c = static_cast<std::size_t>(ds.labels[i]);
    if (!seen[c]) {
      by_class[c] = ds.images[i];
      seen[c] = true;
    }
  }
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      if (!seen[a] || !seen[b]) continue;
      EXPECT_FALSE(tensors_close(by_class[a], by_class[b], 0.0f, 0.0f))
          << "digits " << a << " and " << b << " render identically";
    }
  }
}

TEST(CifarLikeTest, ShapesAndLabels) {
  const Dataset ds = make_cifar_like(32);
  EXPECT_EQ(ds.size(), 32u);
  EXPECT_EQ(ds.image_shape(), (Shape3{3, 32, 32}));
  std::set<std::int64_t> classes(ds.labels.begin(), ds.labels.end());
  EXPECT_GT(classes.size(), 3u);
}

TEST(CifarLikeTest, SharedPrototypesAcrossSplits) {
  // Same proto_seed, different sample seeds: samples differ but per-class
  // structure is shared, so a same-class pair across splits correlates more
  // than a cross-class pair.
  SyntheticOptions a_opts;
  a_opts.seed = 10;
  a_opts.proto_seed = 99;
  a_opts.noise_stddev = 0.01f;
  a_opts.max_shift = 0;
  SyntheticOptions b_opts = a_opts;
  b_opts.seed = 20;
  const Dataset a = make_cifar_like(60, a_opts);
  const Dataset b = make_cifar_like(60, b_opts);

  auto find_label = [](const Dataset& ds, std::int64_t want) -> const Tensor* {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (ds.labels[i] == want) return &ds.images[i];
    }
    return nullptr;
  };
  const Tensor* a0 = find_label(a, 0);
  const Tensor* b0 = find_label(b, 0);
  const Tensor* b1 = find_label(b, 1);
  ASSERT_TRUE(a0 && b0 && b1);
  EXPECT_LT(max_abs_diff(*a0, *b0), max_abs_diff(*a0, *b1));
}

TEST(StandardizeTest, TrainBecomesZeroMeanUnitVar) {
  TrainTest tt = make_usps_like_split(128, 32, 3);
  double sum = 0.0;
  double sum_sq = 0.0;
  std::int64_t n = 0;
  for (const auto& img : tt.train.images) {
    for (float v : img.flat()) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    n += img.size();
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 1e-3);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(DatasetTest, AppendAndTruncate) {
  Dataset a = make_usps_like(4);
  const Dataset b = make_usps_like(3);
  a.append(b);
  EXPECT_EQ(a.size(), 7u);
  a.truncate(2);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.labels.size(), 2u);
}

TEST(IdxLoaderTest, RoundTripGrayscale) {
  const Dataset ds = make_usps_like(12);
  std::stringstream imgs, lbls;
  save_idx_images(ds.images, imgs);
  save_idx_labels(ds.labels, lbls);

  const auto images = load_idx_images(imgs);
  const auto labels = load_idx_labels(lbls);
  ASSERT_EQ(images.size(), 12u);
  EXPECT_EQ(labels, ds.labels);
  EXPECT_EQ(images[0].shape(), (Shape3{1, 16, 16}));
  // Byte quantization: within 1/255 of the source.
  EXPECT_LT(max_abs_diff(images[3], ds.images[3]), 1.0 / 255.0 + 1e-6);
}

TEST(IdxLoaderTest, RoundTripRgb) {
  const Dataset ds = make_cifar_like(4);
  std::stringstream imgs, lbls;
  save_idx_images(ds.images, imgs);
  save_idx_labels(ds.labels, lbls);
  const auto images = load_idx_images(imgs);
  ASSERT_EQ(images.size(), 4u);
  EXPECT_EQ(images[0].shape(), (Shape3{3, 32, 32}));
  EXPECT_LT(max_abs_diff(images[1], ds.images[1]), 1.0 / 255.0 + 1e-6);
  EXPECT_EQ(load_idx_labels(lbls), ds.labels);
}

TEST(IdxLoaderTest, DatasetFromFiles) {
  const Dataset ds = make_usps_like(8);
  {
    std::ofstream f("/tmp/dfcnn_idx_imgs.bin", std::ios::binary);
    save_idx_images(ds.images, f);
  }
  {
    std::ofstream f("/tmp/dfcnn_idx_lbls.bin", std::ios::binary);
    save_idx_labels(ds.labels, f);
  }
  const Dataset back = load_idx_dataset("/tmp/dfcnn_idx_imgs.bin", "/tmp/dfcnn_idx_lbls.bin");
  EXPECT_EQ(back.size(), 8u);
  EXPECT_EQ(back.labels, ds.labels);
  EXPECT_GE(back.num_classes, 1);
}

TEST(IdxLoaderTest, RejectsBadMagic) {
  std::stringstream s("not idx data at all");
  EXPECT_THROW(load_idx_images(s), ConfigError);
  std::stringstream s2("also not idx");
  EXPECT_THROW(load_idx_labels(s2), ConfigError);
}

TEST(IdxLoaderTest, RejectsTruncation) {
  const Dataset ds = make_usps_like(4);
  std::stringstream imgs;
  save_idx_images(ds.images, imgs);
  std::string data = imgs.str();
  data.resize(data.size() - 50);
  std::stringstream cut(data);
  EXPECT_THROW(load_idx_images(cut), ConfigError);
}

TEST(IdxLoaderTest, CountMismatchRejected) {
  const Dataset ds = make_usps_like(4);
  {
    std::ofstream f("/tmp/dfcnn_idx_imgs2.bin", std::ios::binary);
    save_idx_images(ds.images, f);
  }
  {
    std::ofstream f("/tmp/dfcnn_idx_lbls2.bin", std::ios::binary);
    save_idx_labels({0, 1}, f);  // only two labels
  }
  EXPECT_THROW(load_idx_dataset("/tmp/dfcnn_idx_imgs2.bin", "/tmp/dfcnn_idx_lbls2.bin"),
               ConfigError);
}

TEST(IdxLoaderTest, OversizedDimensionsAreRejectedWithoutOverflow) {
  // Three header dimensions of 2^31 multiply past int64; the check must
  // reject them without forming the product (UBSan flags the overflow).
  std::stringstream s;
  for (const std::uint32_t word : {0x00000804u, 1u, 1u << 31, 1u << 31, 1u << 31}) {
    const char be[4] = {static_cast<char>(word >> 24), static_cast<char>(word >> 16),
                        static_cast<char>(word >> 8), static_cast<char>(word)};
    s.write(be, 4);
  }
  EXPECT_THROW(load_idx_images(s), ConfigError);
}

/// Seeded mutants of a saved IDX stream: byte flips (header bytes or
/// anywhere), truncations, and overwrites of one big-endian header word
/// (magic, count, dimensions) with edge values. Every mutant must load or
/// throw ConfigError — never abort, overflow or allocate for records the
/// stream does not hold.
template <typename Load>
void mutate_and_load(const std::string& saved, std::size_t header_words, Load load,
                     dfc::Rng& rng, const std::string& name) {
  constexpr int kMutantsPerKind = 300;
  int loaded = 0;
  const auto check = [&](const std::string& mutant, const std::string& what) {
    std::stringstream in(mutant);
    try {
      load(in);
      ++loaded;
    } catch (const ConfigError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ", " << what << ": " << e.what();
    }
  };
  const std::size_t header_bytes = 4 * header_words;
  for (int i = 0; i < kMutantsPerKind; ++i) {
    std::string m = saved;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at =
          rng.next_below(2) == 0 ? rng.next_below(header_bytes) : rng.next_below(m.size());
      m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng.next_below(255)));
    }
    check(m, "flips #" + std::to_string(i));
  }
  for (int i = 0; i < kMutantsPerKind; ++i) {
    check(saved.substr(0, rng.next_below(saved.size())), "truncation #" + std::to_string(i));
  }
  for (int i = 0; i < kMutantsPerKind; ++i) {
    std::string m = saved;
    const std::size_t at = 4 * rng.next_below(header_words);
    std::uint32_t value = 0;
    for (int b = 0; b < 4; ++b) value = value << 8 | static_cast<unsigned char>(m[at + b]);
    const std::uint32_t choices[] = {0,        1,        value - 1,      value + 1,
                                     1u << 12, 1u << 24, (1u << 24) + 1, 10'000'000,
                                     1u << 31, ~0u,      static_cast<std::uint32_t>(rng.next_u64())};
    value = choices[rng.next_below(std::size(choices))];
    for (int b = 0; b < 4; ++b) m[at + b] = static_cast<char>(value >> (24 - 8 * b));
    check(m, "header word at " + std::to_string(at) + " = " + std::to_string(value));
  }
  EXPECT_GT(loaded, 0) << name << ": no mutant loaded";
}

TEST(IdxMutationTest, MutatedStreamsLoadOrFailCleanly) {
  dfc::Rng rng(0x1d0'19);
  const auto load_images = [](std::istream& is) { load_idx_images(is); };
  const auto load_labels = [](std::istream& is) { load_idx_labels(is); };

  const Dataset gray = make_usps_like(6);
  const Dataset rgb = make_cifar_like(3);
  std::stringstream gray_images, rgb_images, labels;
  save_idx_images(gray.images, gray_images);
  save_idx_images(rgb.images, rgb_images);
  save_idx_labels(gray.labels, labels);
  // Header words: magic, count, [channels,] rows, cols; labels: magic, count.
  mutate_and_load(gray_images.str(), 4, load_images, rng, "grayscale images");
  mutate_and_load(rgb_images.str(), 5, load_images, rng, "RGB images");
  mutate_and_load(labels.str(), 2, load_labels, rng, "labels");
}

TEST(DatasetTest, SplitsAreDisjointSamples) {
  TrainTest tt = make_usps_like_split(32, 32, 9);
  bool any_diff = false;
  for (std::size_t i = 0; i < 32; ++i) {
    any_diff |= !tensors_close(tt.train.images[i], tt.test.images[i], 0.0f, 0.0f);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace dfc::data
