#include "engine/state_json.hh"

#include "econ/market.hh"
#include "trace/profile.hh"

namespace sharch::engine {

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
fieldU64(const json::Value &v, const char *key, std::uint64_t *out,
         std::string *error)
{
    const json::Value *f = v.get(key);
    if (!f || !f->asU64(out))
        return fail(error, std::string(key) +
                               " missing or not an unsigned integer");
    return true;
}

bool
fieldDouble(const json::Value &v, const char *key, double *out,
            std::string *error)
{
    const json::Value *f = v.get(key);
    if (!f || !f->isNumber())
        return fail(error,
                    std::string(key) + " missing or not a number");
    *out = f->asDouble();
    return true;
}

namespace {

bool
fieldI64(const json::Value &v, const char *key, std::int64_t *out,
         std::string *error)
{
    const json::Value *f = v.get(key);
    if (!f || !f->asI64(out))
        return fail(error,
                    std::string(key) + " missing or not an integer");
    return true;
}

json::Value
coordList(const std::vector<Coord> &coords)
{
    json::Value a = json::Value::array();
    for (const Coord &c : coords) {
        json::Value &pair = a.push(json::Value::array());
        pair.push(json::Value::number(std::int64_t{c.x}));
        pair.push(json::Value::number(std::int64_t{c.y}));
    }
    return a;
}

bool
fieldCoords(const json::Value &v, const char *key,
            std::vector<Coord> *out, std::string *error)
{
    const json::Value *f = v.get(key);
    if (!f || !f->isArray())
        return fail(error,
                    std::string(key) + " missing or not an array");
    out->clear();
    for (std::size_t i = 0; i < f->items.size(); ++i) {
        const json::Value &pair = f->items[i];
        std::int64_t x = 0, y = 0;
        if (!pair.isArray() || pair.items.size() != 2 ||
            !pair.items[0].asI64(&x) || !pair.items[1].asI64(&y)) {
            return fail(error, std::string(key) + "[" +
                                   std::to_string(i) +
                                   "] is not an [x,y] pair");
        }
        out->push_back(
            Coord{static_cast<int>(x), static_cast<int>(y)});
    }
    return true;
}

} // namespace

json::Value
fabricToJson(const FabricSnapshot &fs)
{
    json::Value fab = json::Value::object();
    fab.add("width", json::Value::number(std::int64_t{fs.width}));
    fab.add("height", json::Value::number(std::int64_t{fs.height}));
    fab.add("next_id", json::Value::number(fs.next));
    json::Value &allocs =
        fab.add("allocations", json::Value::array());
    for (const FabricAllocation &fa : fs.allocations) {
        json::Value &a = allocs.push(json::Value::object());
        a.add("id", json::Value::number(fa.id));
        a.add("row", json::Value::number(std::int64_t{fa.slices.row}));
        a.add("col", json::Value::number(std::int64_t{fa.slices.col}));
        a.add("count", json::Value::number(fa.slices.count));
        a.add("banks", coordList(fa.banks));
    }
    fab.add("faulty_slices", coordList(fs.faultySliceTiles));
    fab.add("faulty_banks", coordList(fs.faultyBankTiles));
    fab.add("faulty_links", coordList(fs.faultyLinkTiles));
    return fab;
}

bool
fabricFromJson(const json::Value &fab, const std::string &prefix,
               FabricSnapshot *out, std::string *error)
{
    if (!fab.isObject())
        return fail(error, prefix + " missing or not an object");
    FabricSnapshot fs;
    std::int64_t width = 0, height = 0;
    if (!fieldI64(fab, "width", &width, error) ||
        !fieldI64(fab, "height", &height, error) ||
        !fieldU64(fab, "next_id", &fs.next, error) ||
        !fieldCoords(fab, "faulty_slices", &fs.faultySliceTiles,
                     error) ||
        !fieldCoords(fab, "faulty_banks", &fs.faultyBankTiles,
                     error) ||
        !fieldCoords(fab, "faulty_links", &fs.faultyLinkTiles,
                     error)) {
        if (error)
            *error = prefix + "." + *error;
        return false;
    }
    fs.width = static_cast<int>(width);
    fs.height = static_cast<int>(height);
    const json::Value *allocs = fab.get("allocations");
    if (!allocs || !allocs->isArray())
        return fail(error, prefix +
                               ".allocations missing or not an array");
    for (std::size_t i = 0; i < allocs->items.size(); ++i) {
        const json::Value &a = allocs->items[i];
        const std::string where =
            prefix + ".allocations[" + std::to_string(i) + "]: ";
        if (!a.isObject())
            return fail(error, where + "not an object");
        FabricAllocation fa;
        std::int64_t row = 0, col = 0;
        std::uint64_t count = 0;
        std::string sub;
        if (!fieldU64(a, "id", &fa.id, &sub) ||
            !fieldI64(a, "row", &row, &sub) ||
            !fieldI64(a, "col", &col, &sub) ||
            !fieldU64(a, "count", &count, &sub) ||
            !fieldCoords(a, "banks", &fa.banks, &sub)) {
            return fail(error, where + sub);
        }
        fa.slices.row = static_cast<int>(row);
        fa.slices.col = static_cast<int>(col);
        fa.slices.count = static_cast<unsigned>(count);
        fs.allocations.push_back(std::move(fa));
    }
    *out = std::move(fs);
    return true;
}

json::Value
marketStateToJson(const SpotMarketSnapshot &ms)
{
    json::Value mkt = json::Value::object();
    mkt.add("slice_capacity",
            json::Value::number(ms.sliceCapacity));
    mkt.add("bank_capacity", json::Value::number(ms.bankCapacity));
    mkt.add("round", json::Value::number(ms.round));
    mkt.add("prices", marketToJson(ms.prices));
    json::Value &book = mkt.add("customers", json::Value::array());
    for (const SpotCustomer &c : ms.customers) {
        json::Value &v = book.push(json::Value::object());
        v.add("name", json::Value::string(c.name));
        v.add("benchmark", json::Value::string(c.benchmark));
        v.add("utility",
              json::Value::string(utilityName(c.utility)));
        v.add("budget", json::Value::number(c.budget));
        v.add("active", json::Value::boolean_(c.active));
    }
    return mkt;
}

bool
marketStateFromJson(const json::Value &mkt, const std::string &prefix,
                    SpotMarketSnapshot *out, std::string *error)
{
    if (!mkt.isObject())
        return fail(error, prefix + " missing or not an object");
    SpotMarketSnapshot ms;
    std::uint64_t round = 0;
    if (!fieldDouble(mkt, "slice_capacity", &ms.sliceCapacity,
                     error) ||
        !fieldDouble(mkt, "bank_capacity", &ms.bankCapacity,
                     error) ||
        !fieldU64(mkt, "round", &round, error)) {
        if (error)
            *error = prefix + "." + *error;
        return false;
    }
    ms.round = static_cast<unsigned>(round);
    if (ms.sliceCapacity <= 0.0 || ms.bankCapacity <= 0.0)
        return fail(error,
                    prefix + ": capacities must be positive (a "
                    "provider with nothing to sell has no market)");
    const json::Value *prices = mkt.get("prices");
    std::string merr;
    if (!prices || !marketFromJson(*prices, &ms.prices, &merr))
        return fail(error, prefix + ".prices: " +
                               (prices ? merr : "missing"));
    const json::Value *book = mkt.get("customers");
    if (!book || !book->isArray())
        return fail(error, prefix +
                               ".customers missing or not an array");
    for (std::size_t i = 0; i < book->items.size(); ++i) {
        const json::Value &c = book->items[i];
        const std::string where =
            prefix + ".customers[" + std::to_string(i) + "]: ";
        if (!c.isObject())
            return fail(error, where + "not an object");
        SpotCustomer sc;
        const json::Value *name = c.get("name");
        const json::Value *benchmark = c.get("benchmark");
        const json::Value *utility = c.get("utility");
        const json::Value *budget = c.get("budget");
        const json::Value *active = c.get("active");
        if (!name || !name->isString())
            return fail(error, where + "name missing");
        if (!benchmark || !benchmark->isString())
            return fail(error, where + "benchmark missing");
        if (!hasProfile(benchmark->text))
            return fail(error, where + "unknown benchmark '" +
                                   benchmark->text + "'");
        if (!utility || !utility->isString() ||
            !parseUtilityName(utility->text, &sc.utility)) {
            return fail(error, where + "unknown utility");
        }
        if (!budget || !budget->isNumber())
            return fail(error, where + "budget missing");
        if (!active || !active->isBool())
            return fail(error, where + "active missing");
        sc.name = name->text;
        sc.benchmark = benchmark->text;
        sc.budget = budget->asDouble();
        sc.active = active->boolean;
        ms.customers.push_back(std::move(sc));
    }
    *out = std::move(ms);
    return true;
}

} // namespace sharch::engine
