#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/fieldcodec.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "core/core.hh"

namespace zmt
{

namespace
{

using namespace fieldcodec;

const char CheckpointHeader[] = "zmt-checkpoint-v1";

/** Warm pages / lines per record: keeps line lengths bounded. */
constexpr size_t WarmBatch = 512;

std::string
hexBytes(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

bool
parseHexBytes(const std::string &text, std::vector<uint8_t> *out)
{
    if (text.size() % 2 != 0)
        return false;
    out->clear();
    out->reserve(text.size() / 2);
    for (size_t i = 0; i < text.size(); i += 2) {
        int hi = hexNibble(text[i]);
        int lo = hexNibble(text[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out->push_back(uint8_t(hi << 4 | lo));
    }
    return true;
}

template <size_t N>
std::string
hexRegs(const std::array<uint64_t, N> &regs)
{
    std::string out;
    char buf[24];
    for (size_t i = 0; i < N; ++i) {
        std::snprintf(buf, sizeof(buf), "%llx",
                      (unsigned long long)regs[i]);
        if (i)
            out += ',';
        out += buf;
    }
    return out;
}

template <size_t N>
bool
parseHexRegs(const TokenMap &kv, const std::string &key,
             std::array<uint64_t, N> *regs)
{
    auto it = kv.find(key);
    if (it == kv.end())
        return false;
    const std::string &text = it->second;
    size_t pos = 0;
    for (size_t i = 0; i < N; ++i) {
        if (pos >= text.size())
            return false;
        char *end = nullptr;
        (*regs)[i] = std::strtoull(text.c_str() + pos, &end, 16);
        if (end == text.c_str() + pos)
            return false;
        pos = size_t(end - text.c_str());
        if (i + 1 < N) {
            if (pos >= text.size() || text[pos] != ',')
                return false;
            ++pos;
        }
    }
    return pos == text.size();
}

void
emitRecord(std::ostream &os, const std::string &payload)
{
    os << hex64(fnv1a64(payload)) << ' ' << payload << '\n';
}

std::string
serializeProc(size_t idx, const CheckpointProc &p)
{
    std::ostringstream os;
    os << "proc idx=" << idx
       << " wload=" << encodeField(canonicalKey(p.wload))
       << " asn=" << p.asn << " ptbr=" << p.ptbr
       << " valimit=" << p.vaLimit << " mapped=" << p.mappedPages
       << " entry=" << p.entry << " pc=" << p.arch.pc
       << " pal=" << (p.arch.palMode ? 1 : 0)
       << " ffwd=" << p.ffwdInsts << " shash=" << p.storeHash
       << " halted=" << (p.halted ? 1 : 0)
       << " int=" << hexRegs(p.arch.intRegs)
       << " fp=" << hexRegs(p.arch.fpRegs)
       << " priv=" << hexRegs(p.arch.privRegs);
    return os.str();
}

bool
parseProc(const TokenMap &kv, CheckpointProc *p, std::string *why)
{
    std::string wloadKey;
    uint64_t asn = 0, pal = 0, halted = 0;
    if (!getString(kv, "wload", &wloadKey) || !getU64(kv, "asn", &asn) ||
        !getU64(kv, "ptbr", &p->ptbr) ||
        !getU64(kv, "valimit", &p->vaLimit) ||
        !getU64(kv, "mapped", &p->mappedPages) ||
        !getU64(kv, "entry", &p->entry) ||
        !getU64(kv, "pc", &p->arch.pc) || !getU64(kv, "pal", &pal) ||
        !getU64(kv, "ffwd", &p->ffwdInsts) ||
        !getU64(kv, "shash", &p->storeHash) ||
        !getU64(kv, "halted", &halted) ||
        !parseHexRegs(kv, "int", &p->arch.intRegs) ||
        !parseHexRegs(kv, "fp", &p->arch.fpRegs) ||
        !parseHexRegs(kv, "priv", &p->arch.privRegs)) {
        *why = "missing or malformed proc field";
        return false;
    }
    if (!parseWorkloadKey(wloadKey, &p->wload, why))
        return false;
    p->asn = Asn(asn);
    p->arch.palMode = pal != 0;
    p->halted = halted != 0;
    return true;
}

} // anonymous namespace

bool
saveCheckpoint(const CheckpointData &data, const std::string &path,
               std::string *error)
{
    std::ostringstream os;
    os << CheckpointHeader << '\n';

    uint64_t records = 0;
    auto record = [&](const std::string &payload) {
        emitRecord(os, payload);
        ++records;
    };

    {
        std::ostringstream meta;
        meta << "meta ffwd=" << data.ffwdTotal
             << " frames=" << data.framesNext
             << " procs=" << data.procs.size()
             << " pages=" << data.pages.size()
             << " wpages=" << data.warmPages.size()
             << " wlines=" << data.warmLines.size();
        record(meta.str());
    }

    for (size_t i = 0; i < data.procs.size(); ++i)
        record(serializeProc(i, data.procs[i]));

    for (const auto &[ppn, bytes] : data.pages) {
        std::ostringstream page;
        page << "page ppn=" << ppn << " data=" << hexBytes(bytes);
        record(page.str());
    }

    for (size_t i = 0; i < data.warmPages.size(); i += WarmBatch) {
        std::ostringstream wp;
        wp << "wp v=";
        for (size_t j = i; j < std::min(i + WarmBatch,
                                        data.warmPages.size()); ++j) {
            if (j > i)
                wp << ',';
            wp << data.warmPages[j].asn << ':' << data.warmPages[j].vpn;
        }
        record(wp.str());
    }

    for (size_t i = 0; i < data.warmLines.size(); i += WarmBatch) {
        std::ostringstream wl;
        wl << "wl v=";
        for (size_t j = i; j < std::min(i + WarmBatch,
                                        data.warmLines.size()); ++j) {
            const WarmLine &line = data.warmLines[j];
            unsigned flags = (line.data ? 1u : 0u) |
                             (line.fetch ? 2u : 0u) |
                             (line.dirty ? 4u : 0u);
            if (j > i)
                wl << ',';
            wl << line.grain << ':' << flags;
        }
        record(wl.str());
    }

    emitRecord(os, "end records=" + std::to_string(records));

    // Whole-file temp + rename: a reader never observes a partial
    // checkpoint, and a crash mid-write leaves the old file intact.
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        out << os.str();
        out.flush();
        if (!out) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

namespace
{

bool
parseWarmList(const TokenMap &kv, const char *what, std::string *why,
              const std::function<bool(uint64_t, uint64_t)> &add)
{
    auto it = kv.find("v");
    if (it == kv.end()) {
        *why = std::string("missing ") + what + " list";
        return false;
    }
    const std::string &text = it->second;
    size_t pos = 0;
    while (pos < text.size()) {
        char *end = nullptr;
        uint64_t a = std::strtoull(text.c_str() + pos, &end, 10);
        if (end == text.c_str() + pos || *end != ':') {
            *why = std::string("malformed ") + what + " entry";
            return false;
        }
        pos = size_t(end - text.c_str()) + 1;
        uint64_t b = std::strtoull(text.c_str() + pos, &end, 10);
        if (end == text.c_str() + pos || !add(a, b)) {
            *why = std::string("malformed ") + what + " entry";
            return false;
        }
        pos = size_t(end - text.c_str());
        if (pos < text.size()) {
            if (text[pos] != ',') {
                *why = std::string("malformed ") + what + " entry";
                return false;
            }
            ++pos;
        }
    }
    return true;
}

} // anonymous namespace

bool
loadCheckpoint(const std::string &path, CheckpointData *data,
               std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    auto failLine = [&](size_t index, const std::string &why) {
        return fail("'" + path + "' line " + std::to_string(index + 1) +
                    ": " + why);
    };

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();

    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < content.size()) {
        size_t nl = content.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(content.substr(pos));
            break;
        }
        lines.push_back(content.substr(pos, nl - pos));
        pos = nl + 1;
    }

    if (lines.empty() || lines[0] != CheckpointHeader)
        return fail("'" + path + "' is not a " + CheckpointHeader +
                    " file");

    CheckpointData d;
    bool haveMeta = false, haveEnd = false;
    uint64_t metaProcs = 0, metaPages = 0, metaWp = 0, metaWl = 0;
    uint64_t records = 0;

    for (size_t i = 1; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (haveEnd)
            return failLine(i, "record after end trailer");
        if (line.size() < 18 || line[16] != ' ')
            return failLine(i, "truncated record");
        std::string payload = line.substr(17);
        if (hex64(fnv1a64(payload)) != line.substr(0, 16))
            return failLine(i, "record checksum mismatch");

        size_t sp = payload.find(' ');
        std::string type = payload.substr(0, sp);
        TokenMap kv;
        if (sp != std::string::npos &&
            !splitTokens(payload.substr(sp + 1), &kv))
            return failLine(i, "malformed record");

        std::string why;
        if (type == "end") {
            uint64_t expected = 0;
            if (!getU64(kv, "records", &expected))
                return failLine(i, "malformed end trailer");
            if (expected != records)
                return failLine(i, "end trailer expects " +
                                       std::to_string(expected) +
                                       " records, found " +
                                       std::to_string(records));
            haveEnd = true;
            continue;
        }

        ++records;
        if (!haveMeta) {
            if (type != "meta")
                return failLine(i, "first record is not meta");
            if (!getU64(kv, "ffwd", &d.ffwdTotal) ||
                !getU64(kv, "frames", &d.framesNext) ||
                !getU64(kv, "procs", &metaProcs) ||
                !getU64(kv, "pages", &metaPages) ||
                !getU64(kv, "wpages", &metaWp) ||
                !getU64(kv, "wlines", &metaWl))
                return failLine(i, "missing or malformed meta field");
            haveMeta = true;
            continue;
        }

        if (type == "proc") {
            CheckpointProc p;
            if (!parseProc(kv, &p, &why))
                return failLine(i, why);
            d.procs.push_back(std::move(p));
        } else if (type == "page") {
            uint64_t ppn = 0;
            std::string hexData;
            std::vector<uint8_t> bytes;
            if (!getU64(kv, "ppn", &ppn) ||
                !getString(kv, "data", &hexData) ||
                !parseHexBytes(hexData, &bytes) ||
                bytes.size() > PageBytes)
                return failLine(i, "missing or malformed page field");
            d.pages.emplace_back(ppn, std::move(bytes));
        } else if (type == "wp") {
            bool ok = parseWarmList(kv, "warm-page", &why,
                                    [&](uint64_t a, uint64_t b) {
                                        if (a > 0xffff)
                                            return false;
                                        d.warmPages.push_back(
                                            {Asn(a), b});
                                        return true;
                                    });
            if (!ok)
                return failLine(i, why);
        } else if (type == "wl") {
            bool ok = parseWarmList(kv, "warm-line", &why,
                                    [&](uint64_t a, uint64_t b) {
                                        if (b > 7)
                                            return false;
                                        d.warmLines.push_back(
                                            {a, (b & 1) != 0,
                                             (b & 2) != 0,
                                             (b & 4) != 0});
                                        return true;
                                    });
            if (!ok)
                return failLine(i, why);
        } else {
            return failLine(i, "unknown record type '" + type + "'");
        }
    }

    if (!haveEnd)
        return fail("'" + path + "': missing end trailer (truncated "
                    "file)");
    if (d.procs.size() != metaProcs || d.pages.size() != metaPages ||
        d.warmPages.size() != metaWp || d.warmLines.size() != metaWl)
        return fail("'" + path + "': record counts do not match the "
                    "meta header");
    if (d.procs.empty())
        return fail("'" + path + "': checkpoint has no processes");

    *data = std::move(d);
    return true;
}

void
applyWarmState(SmtCore &core, const std::vector<WarmPage> &pages,
               const std::vector<WarmLine> &lines)
{
    if (pages.empty() && lines.empty())
        return;
    Tlb &tlb = core.dtlb();
    MemHierarchy &mem = core.memory();
    for (const WarmPage &page : pages)
        tlb.warmInsert(page.asn, page.vpn << PageBits);
    for (const WarmLine &line : lines) {
        Addr pa = line.grain * WarmGrainBytes;
        if (line.data) {
            mem.dcache().warmInstall(pa, line.dirty);
            mem.l2cache().warmInstall(pa, false);
        }
        if (line.fetch) {
            mem.icache().warmInstall(pa, false);
            mem.l2cache().warmInstall(pa, false);
        }
    }
    mem.settleTiming();
}

} // namespace zmt
